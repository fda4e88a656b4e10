//! Differential kernel test: the open-addressing unique table against a
//! reference `HashMap` shadow.
//!
//! The kernel's hash-consing moved from `HashMap<Node, NodeId>` onto a
//! custom open-addressing table (arena-indexed values, linear probing,
//! backward-shift deletion). Its entire contract is *"behaves exactly like
//! the hash map did"*: the same `mk` call returns the same `NodeId`, an
//! entry once inserted is always found, and nothing aliases. These
//! properties drive random `mk`/op/gc/sift/freeze-thaw scripts through a
//! manager while a `HashMap` keyed on normalised `(var, lo, hi)` triples
//! shadows the unique table:
//!
//! * on a shadow **hit**, the manager must return exactly the shadow's
//!   `NodeId` (the table finds what the reference predicts — no lost
//!   entries, no aliasing, no spurious allocation);
//! * on a shadow **miss**, the manager either allocates the next arena slot
//!   (fresh node) or returns an older node the shadow had not seen (ops
//!   create nodes outside the scripted `mk`s) — never anything newer;
//! * after every step the manager passes `assert_canonical` and every
//!   shadow entry re-`mk`s to its recorded id — including across gc
//!   (both sides remapped), sifting (shadow rebuilt from the rewritten
//!   arena), and freeze/thaw (lookups now resolve through the two-level
//!   base-then-delta probe).

use std::collections::{HashMap, HashSet};

use dp_bdd::{Manager, NodeId, Var};
use proptest::prelude::*;

const NVARS: u32 = 6;

/// Reference unique table: normalised stored triple → regular edge.
type Shadow = HashMap<(Var, NodeId, NodeId), NodeId>;

/// The level of the node an edge points at (terminals below everything),
/// via public accessors only.
fn level(m: &Manager, e: NodeId) -> u32 {
    if e.is_terminal() {
        u32::MAX
    } else {
        m.level_of(m.node_var(e))
    }
}

/// Drives one `mk` through both the manager and the shadow and
/// cross-checks them. Returns the manager's edge.
fn mk_step(m: &mut Manager, shadow: &mut Shadow, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
    let before = m.num_nodes();
    let got = m.make_node(var, lo, hi);
    if lo == hi {
        // Reduction rule: no table traffic at all.
        assert_eq!(got, lo);
        assert_eq!(m.num_nodes(), before);
        return got;
    }
    // Mirror mk's complement normalisation: stored hi edges are regular.
    let flip = hi.is_complemented();
    let (slo, shi) = if flip {
        (lo.complemented(), hi.complemented())
    } else {
        (lo, hi)
    };
    let key = (var, slo, shi);
    match shadow.get(&key) {
        Some(&id) => {
            // The core differential claim: a key the reference knows MUST
            // come back as exactly the reference's id, without allocating.
            let expect = if flip { id.complemented() } else { id };
            assert_eq!(got, expect, "unique table disagrees with shadow");
            assert_eq!(m.num_nodes(), before, "hit must not allocate");
        }
        None => {
            assert_eq!(got.is_complemented(), flip);
            if got.index() == before {
                // Fresh node: took the next arena slot.
                assert_eq!(m.num_nodes(), before + 1);
            } else {
                // An op created this triple outside the scripted mks; it
                // must be an *older* node and must not allocate now.
                assert!(got.index() < before, "id from beyond the arena");
                assert_eq!(m.num_nodes(), before);
            }
            shadow.insert(key, got.regular());
        }
    }
    got
}

/// Every shadow entry must re-`mk` to its recorded id — the table never
/// forgets and never aliases, whatever gc/sift/freeze did in between.
fn verify_shadow(m: &mut Manager, shadow: &Shadow) {
    for (&(var, lo, hi), &id) in shadow {
        let before = m.num_nodes();
        let got = m.make_node(var, lo, hi);
        assert_eq!(got, id, "shadow entry lost or aliased");
        assert_eq!(m.num_nodes(), before, "verification allocated");
    }
}

/// Rebuilds the shadow from the (possibly sift-rewritten) arena by walking
/// the pool cones through public accessors. Regular edges see the stored
/// fields verbatim, so the rebuilt keys are the stored triples.
fn rebuild_shadow(m: &Manager, pool: &[NodeId]) -> Shadow {
    let mut shadow = Shadow::new();
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut stack: Vec<NodeId> = pool.iter().map(|f| f.regular()).collect();
    while let Some(f) = stack.pop() {
        if f.is_terminal() || !seen.insert(f) {
            continue;
        }
        let (var, lo, hi) = (m.node_var(f), m.node_lo(f), m.node_hi(f));
        shadow.insert((var, lo, hi), f);
        stack.push(lo.regular());
        stack.push(hi.regular());
    }
    shadow
}

/// One script instruction; operand bytes select pool entries / variables
/// modulo whatever is available when the step runs.
#[derive(Debug, Clone)]
struct Step {
    kind: u8,
    a: u8,
    b: u8,
    c: u8,
}

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..8, any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, a, b, c)| Step {
            kind,
            a,
            b,
            c,
        }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_tables_match_hashmap_shadow(script in arb_script()) {
        let mut m = Manager::new(NVARS as usize);
        let mut shadow = Shadow::new();
        let mut frozen = false;

        // Seed pool: terminals and all single-variable functions, via the
        // differential path so the shadow starts synchronised.
        let mut pool: Vec<NodeId> = vec![NodeId::TRUE, NodeId::FALSE];
        for v in 0..NVARS {
            let f = mk_step(&mut m, &mut shadow, v, NodeId::FALSE, NodeId::TRUE);
            pool.push(f);
            pool.push(f.complemented());
        }

        for step in script {
            let pick = |sel: u8| pool[sel as usize % pool.len()];
            match step.kind {
                // Random mk with order-respecting operands.
                0 | 1 => {
                    let lo = pick(step.a);
                    let hi = pick(step.b);
                    let child_min = level(&m, lo).min(level(&m, hi));
                    if child_min == 0 {
                        continue; // no level fits above the children
                    }
                    let lvl = step.c as u32 % child_min.min(NVARS);
                    let var = m.var_at_level(lvl);
                    let f = mk_step(&mut m, &mut shadow, var, lo, hi);
                    pool.push(f);
                }
                // Ops create nodes the shadow does not see — later mks and
                // verifies must still agree on everything it does see.
                2 => {
                    let (a, b) = (pick(step.a), pick(step.b));
                    let f = m.xor(a, b);
                    pool.push(f);
                }
                3 => {
                    let (a, b, c) = (pick(step.a), pick(step.b), pick(step.c));
                    let f = m.ite(a, b, c);
                    pool.push(f);
                }
                // gc: remap pool and shadow in lockstep. Every shadow node
                // lies in a pool cone, so nothing it references is collected.
                4 => {
                    let remap = m.gc(&pool);
                    for f in &mut pool {
                        *f = remap.map(*f);
                    }
                    shadow = shadow
                        .into_iter()
                        .map(|((var, lo, hi), id)| {
                            ((var, remap.map(lo), remap.map(hi)), remap.map(id))
                        })
                        .collect();
                }
                // sift rewrites stored triples in place: the reference is
                // rebuilt from the arena, then must round-trip exactly.
                5 => {
                    if frozen {
                        continue; // delta managers have a fixed order
                    }
                    m.sift(&mut pool);
                    shadow = rebuild_shadow(&m, &pool);
                }
                // freeze-thaw: same ids, lookups now cross the base table.
                6 => {
                    if frozen {
                        continue;
                    }
                    let snapshot = std::mem::replace(&mut m, Manager::new(NVARS as usize)).freeze();
                    m = snapshot.thaw();
                    frozen = true;
                }
                // Cache/table maintenance must be invisible to identity.
                _ => match step.a % 3 {
                    0 => m.clear_op_cache(),
                    1 => m.set_op_cache_capacity(1 << (10 + (step.b % 4))),
                    _ => m.reserve_nodes(m.num_nodes() + step.b as usize * 16),
                },
            }
            m.assert_canonical();
            verify_shadow(&mut m, &shadow);
        }
    }

    /// Focused two-level-probe property: after freeze, delta lookups of
    /// base triples hit the base table and return frozen ids; new triples
    /// land in the delta and stay canonical.
    #[test]
    fn frozen_base_probe_matches_shadow(script in arb_script()) {
        let mut m = Manager::new(NVARS as usize);
        let mut shadow = Shadow::new();
        let mut pool: Vec<NodeId> = vec![NodeId::TRUE, NodeId::FALSE];
        for v in 0..NVARS {
            let f = mk_step(&mut m, &mut shadow, v, NodeId::FALSE, NodeId::TRUE);
            pool.push(f);
        }
        // Build a base out of the first half of the script...
        let (first, second) = script.split_at(script.len() / 2);
        for step in first {
            let lo = pool[step.a as usize % pool.len()];
            let hi = pool[step.b as usize % pool.len()];
            let child_min = level(&m, lo).min(level(&m, hi));
            if child_min == 0 {
                continue;
            }
            let var = m.var_at_level(step.c as u32 % child_min.min(NVARS));
            let f = mk_step(&mut m, &mut shadow, var, lo, hi);
            pool.push(f);
        }
        let snapshot = m.freeze();
        // ...then run the second half in two independent delta managers:
        // both must agree with the shadow (and hence with each other).
        for _ in 0..2 {
            let mut w = snapshot.thaw();
            let mut wshadow = shadow.clone();
            let mut wpool = pool.clone();
            for step in second {
                let lo = wpool[step.a as usize % wpool.len()];
                let hi = wpool[step.b as usize % wpool.len()];
                let child_min = level(&w, lo).min(level(&w, hi));
                if child_min == 0 {
                    continue;
                }
                let var = w.var_at_level(step.c as u32 % child_min.min(NVARS));
                let f = mk_step(&mut w, &mut wshadow, var, lo, hi);
                wpool.push(f);
                w.assert_canonical();
            }
            verify_shadow(&mut w, &wshadow);
        }
    }
}
