//! `Manager::sift` against a reference Rudell sift written here from the
//! public API alone.
//!
//! The reference walks with the handle-preserving
//! [`Manager::swap_adjacent_levels`] and re-measures the live size with a
//! full [`Manager::live_size`] walk after every step — the textbook
//! algorithm, with the same occupancy order (live nodes per variable,
//! decreasing, ties by variable index), the same strict-`<` rule for a
//! new best position and the same growth cap: before each step away from
//! the variable's starting level, a walk stops once the live size exceeds
//! 11/10 of the best so far. Steps back toward the start revisit measured
//! levels and are never capped, so where one walk ended cannot change what
//! the next one visits. The cap is a heuristic by design; what this file
//! checks is that nothing else is. The production sift keeps reference
//! counts and per-variable unique subtables instead, frees dead nodes as
//! it goes and never rewrites them, and it also stops a walk once a lower
//! bound says no further level can beat the best size. Both must make
//! exactly the same decisions: on random multi-root functions over 6–8
//! variables, and on roots over two disjoint variable groups of up to 10
//! variables (where many pairs share no root, so the bound bites), from a
//! random starting order and with dead nodes piled up first, they must
//! agree on the final order, the returned size and the reclaimed count,
//! and every root must still denote its function. The production sift may
//! only make fewer swaps than the reference, and on the two-group
//! functions it must.

use std::collections::HashSet;

use dp_bdd::{BinOp, Manager, NodeId, Var};
use proptest::prelude::*;

const MAX_VARS: u32 = 8;

#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Var(u32),
    Not(Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0..MAX_VARS).prop_map(Expr::Var),
        (0..MAX_VARS).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (
                prop_oneof![Just(BinOp::And), Just(BinOp::Or), Just(BinOp::Xor)],
                inner.clone(),
                inner
            )
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
        ]
    })
}

/// Builds `e` with variable `v` read as `vars[v % vars.len()]`.
fn build(m: &mut Manager, e: &Expr, vars: &[Var]) -> NodeId {
    match e {
        Expr::Const(b) => m.constant(*b),
        Expr::Var(v) => m.var(vars[*v as usize % vars.len()]),
        Expr::Not(x) => {
            let x = build(m, x, vars);
            m.not(x)
        }
        Expr::Bin(op, a, b) => {
            let a = build(m, a, vars);
            let b = build(m, b, vars);
            m.apply(*op, a, b)
        }
    }
}

/// The permutation of `0..keys.len()` that sorts `keys`.
fn order_from_keys(keys: &[u64]) -> Vec<Var> {
    let mut order: Vec<Var> = (0..keys.len() as Var).collect();
    order.sort_by_key(|&v| (keys[v as usize], v));
    order
}

fn truth_table(m: &Manager, f: NodeId) -> Vec<bool> {
    let n = m.num_vars();
    (0u32..1 << n)
        .map(|bits| {
            let env: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            m.eval(f, &env)
        })
        .collect()
}

/// Live nodes labelled `var`, by a walk over the public accessors.
fn live_with_var(m: &Manager, roots: &[NodeId], var: Var) -> usize {
    let mut seen = HashSet::new();
    let mut stack = roots.to_vec();
    let mut count = 0;
    while let Some(x) = stack.pop() {
        if x.is_terminal() || !seen.insert(x.index()) {
            continue;
        }
        count += usize::from(m.node_var(x) == var);
        stack.push(m.node_lo(x));
        stack.push(m.node_hi(x));
    }
    count
}

/// The textbook sift, growth cap included: handle-preserving swaps and a
/// full live-size walk after each. Returns `(live size before, after,
/// swaps)`.
fn reference_sift(m: &mut Manager, roots: &[NodeId]) -> (usize, usize, u64) {
    let n = m.num_vars() as u32;
    let before = m.live_size(roots);
    let mut best_total = before;
    let mut swaps = 0;
    let mut occupancy: Vec<(usize, Var)> =
        (0..n).map(|v| (live_with_var(m, roots, v), v)).collect();
    occupancy.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
    for &(_, var) in &occupancy {
        let start = m.level_of(var);
        let mut best_level = start;
        let ends = if start <= n / 2 {
            [0, n - 1]
        } else {
            [n - 1, 0]
        };
        for target in ends {
            while m.level_of(var) != target {
                let level = m.level_of(var);
                let next = if target > level { level + 1 } else { level - 1 };
                let outward = next.abs_diff(start) > level.abs_diff(start);
                if outward && m.live_size(roots) * 10 > best_total * 11 {
                    break;
                }
                m.swap_adjacent_levels(level.min(next));
                swaps += 1;
                let size = m.live_size(roots);
                if size < best_total {
                    best_total = size;
                    best_level = next;
                }
            }
        }
        swaps += u64::from(m.level_of(var).abs_diff(best_level));
        m.move_var_to_level(var, best_level);
        best_total = m.live_size(roots);
    }
    (before, best_total, swaps)
}

/// One case: the live roots are `live[i]` built over `groups[i % len]`,
/// garbage is piled up, and the production sift must decide exactly as
/// the reference does. Returns whether it skipped some of the
/// reference's swaps.
fn check_case(
    order: &[Var],
    groups: &[Vec<Var>],
    live: &[Expr],
    dead: &[Expr],
    swaps: &[u32],
) -> bool {
    let nvars = order.len() as u32;
    let setup = |m: &mut Manager| -> Vec<NodeId> {
        let roots: Vec<NodeId> = live
            .iter()
            .enumerate()
            .map(|(i, e)| build(m, e, &groups[i % groups.len()]))
            .collect();
        // Pile up garbage: whole dead functions, plus the dead nodes
        // handle-preserving swaps leave behind.
        for (i, e) in dead.iter().enumerate() {
            let g = build(m, e, &groups[i % groups.len()]);
            let _ = m.xor(g, roots[0]);
        }
        for &level in swaps {
            m.swap_adjacent_levels(level % (nvars - 1));
        }
        roots
    };
    let mut reference = Manager::with_order(order).unwrap();
    let ref_roots = setup(&mut reference);
    let mut m = Manager::with_order(order).unwrap();
    let mut roots = setup(&mut m);
    assert_eq!(&ref_roots, &roots, "identical histories, identical handles");
    let tables: Vec<Vec<bool>> = roots.iter().map(|&f| truth_table(&m, f)).collect();

    let (before, expected, reference_swaps) = reference_sift(&mut reference, &ref_roots);
    let size = m.sift(&mut roots);

    assert_eq!(m.order(), reference.order(), "final order");
    assert_eq!(size, expected, "returned live size");
    assert_eq!(m.stats().sift_nodes_reclaimed, (before - expected) as u64);
    assert!(
        m.stats().sift_swaps <= reference_swaps,
        "{} swaps against the full walk's {reference_swaps}",
        m.stats().sift_swaps
    );
    assert_eq!(m.live_size(&roots), size);
    assert_eq!(m.num_nodes(), size + 1, "only live nodes remain");
    for (i, &f) in roots.iter().enumerate() {
        assert_eq!(&truth_table(&m, f), &tables[i], "root {} changed", i);
        assert_eq!(&truth_table(&reference, ref_roots[i]), &tables[i]);
    }
    m.assert_canonical();
    reference.assert_canonical();
    m.stats().sift_swaps < reference_swaps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sift_matches_the_reference_sift(
        nvars in 6u32..9,
        keys in collection::vec(any::<u64>(), 8..9),
        live in collection::vec(arb_expr(), 1..5),
        dead in collection::vec(arb_expr(), 1..6),
        swaps in collection::vec(0u32..7, 0..6),
    ) {
        let order = order_from_keys(&keys[..nvars as usize]);
        let all: Vec<Var> = (0..nvars).collect();
        check_case(&order, &[all], &live, &dead, &swaps);
    }
}

/// Roots over two disjoint variable groups of 6–10 variables in all: no
/// pair across the groups interacts, so walks stop early. Every case must
/// still match the reference, and some must actually have pruned.
#[test]
fn two_group_sifts_match_the_reference_and_prune() {
    let mut rng = TestRng::deterministic("two_group_sifts_match_the_reference_and_prune");
    let case = (
        6u32..11,
        2u32..5,
        collection::vec(any::<u64>(), 10..11),
        collection::vec(arb_expr(), 2..5),
        collection::vec(arb_expr(), 1..4),
        collection::vec(0u32..9, 0..6),
    );
    let mut pruned = 0;
    for _ in 0..48 {
        let (nvars, split, keys, live, dead, swaps) = case.generate(&mut rng);
        let order = order_from_keys(&keys[..nvars as usize]);
        // Shuffled by `order`, so the groups start interleaved.
        let groups = [(0..split).collect(), (split..nvars).collect()];
        pruned += usize::from(check_case(&order, &groups, &live, &dead, &swaps));
    }
    assert!(pruned > 0, "no two-group case pruned a single swap");
}
