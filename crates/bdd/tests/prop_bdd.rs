//! Property-based tests: OBDD operations agree with brute-force semantics
//! on random expression trees, and canonical-form invariants hold.

use dp_bdd::{BinOp, Manager, NodeId};
use proptest::prelude::*;

/// A random Boolean expression over `NVARS` variables.
#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Var(u32),
    Not(Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

const NVARS: u32 = 5;

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0..NVARS).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (
                prop_oneof![Just(BinOp::And), Just(BinOp::Or), Just(BinOp::Xor)],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(f, g, h)| Expr::Ite(
                Box::new(f),
                Box::new(g),
                Box::new(h)
            )),
        ]
    })
}

fn eval_expr(e: &Expr, env: &[bool]) -> bool {
    match e {
        Expr::Const(b) => *b,
        Expr::Var(v) => env[*v as usize],
        Expr::Not(x) => !eval_expr(x, env),
        Expr::Bin(op, a, b) => op.eval(eval_expr(a, env), eval_expr(b, env)),
        Expr::Ite(f, g, h) => {
            if eval_expr(f, env) {
                eval_expr(g, env)
            } else {
                eval_expr(h, env)
            }
        }
    }
}

fn build(m: &mut Manager, e: &Expr) -> NodeId {
    match e {
        Expr::Const(b) => m.constant(*b),
        Expr::Var(v) => m.var(*v),
        Expr::Not(x) => {
            let x = build(m, x);
            m.not(x)
        }
        Expr::Bin(op, a, b) => {
            let a = build(m, a);
            let b = build(m, b);
            m.apply(*op, a, b)
        }
        Expr::Ite(f, g, h) => {
            let f = build(m, f);
            let g = build(m, g);
            let h = build(m, h);
            m.ite(f, g, h)
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0u32..1 << NVARS).map(|bits| (0..NVARS).map(|i| bits >> i & 1 == 1).collect())
}

/// A random expression over a wider variable set (for the truth-table
/// oracle property below).
fn arb_expr_n(nvars: u32) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0..nvars).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (
                prop_oneof![Just(BinOp::And), Just(BinOp::Or), Just(BinOp::Xor)],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(f, g, h)| Expr::Ite(
                Box::new(f),
                Box::new(g),
                Box::new(h)
            )),
        ]
    })
}

/// Bit-parallel scalar truth table of `e` over `nvars` variables: bit `i` of
/// the table is the value under the assignment whose bit `j` sets variable
/// `j`. Computed compositionally with word-wide Boolean ops — an oracle that
/// shares no traversal code with the BDD layer.
fn truth_table(e: &Expr, nvars: u32) -> Vec<u64> {
    let bits = 1usize << nvars;
    let words = bits.div_ceil(64);
    let mask_last = if bits.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (bits % 64)) - 1
    };
    let mut table = match e {
        Expr::Const(b) => vec![if *b { u64::MAX } else { 0 }; words],
        Expr::Var(v) => (0..words)
            .map(|w| {
                let mut word = 0u64;
                for bit in 0..64 {
                    let idx = w * 64 + bit;
                    if idx < bits && idx >> v & 1 == 1 {
                        word |= 1 << bit;
                    }
                }
                word
            })
            .collect(),
        Expr::Not(x) => truth_table(x, nvars).iter().map(|w| !w).collect(),
        Expr::Bin(op, a, b) => {
            let ta = truth_table(a, nvars);
            let tb = truth_table(b, nvars);
            ta.iter()
                .zip(&tb)
                .map(|(&x, &y)| match op {
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                })
                .collect()
        }
        Expr::Ite(f, g, h) => {
            let tf = truth_table(f, nvars);
            let tg = truth_table(g, nvars);
            let th = truth_table(h, nvars);
            tf.iter()
                .zip(tg.iter().zip(&th))
                .map(|(&s, (&x, &y))| (s & x) | (!s & y))
                .collect()
        }
    };
    if let Some(last) = table.last_mut() {
        *last &= mask_last;
    }
    table
}

proptest! {
    #[test]
    fn bdd_matches_brute_force(e in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        for env in assignments() {
            prop_assert_eq!(m.eval(f, &env), eval_expr(&e, &env));
        }
    }

    #[test]
    fn sat_count_matches_brute_force(e in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let brute = assignments().filter(|env| eval_expr(&e, env)).count();
        prop_assert_eq!(m.sat_count(f), brute as u128);
        let density = brute as f64 / (1u64 << NVARS) as f64;
        prop_assert!((m.density(f) - density).abs() < 1e-12);
    }

    #[test]
    fn canonicity_equal_functions_share_node(e in arb_expr()) {
        // f and ¬¬f, and f XOR false, must be the identical node.
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let nf = m.not(f);
        let nnf = m.not(nf);
        prop_assert_eq!(f, nnf);
        let x = m.xor(f, NodeId::FALSE);
        prop_assert_eq!(f, x);
    }

    #[test]
    fn de_morgan(a in arb_expr(), b in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let fa = build(&mut m, &a);
        let fb = build(&mut m, &b);
        let lhs = { let t = m.and(fa, fb); m.not(t) };
        let rhs = { let na = m.not(fa); let nb = m.not(fb); m.or(na, nb) };
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn shannon_expansion(e in arb_expr(), v in 0..NVARS) {
        // f = (v ∧ f|v=1) ∨ (¬v ∧ f|v=0)
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let f1 = m.restrict(f, v, true);
        let f0 = m.restrict(f, v, false);
        let xv = m.var(v);
        let recombined = m.ite(xv, f1, f0);
        prop_assert_eq!(f, recombined);
    }

    #[test]
    fn compose_var_is_identity(e in arb_expr(), v in 0..NVARS) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let xv = m.var(v);
        let g = m.compose(f, v, xv);
        prop_assert_eq!(f, g);
    }

    #[test]
    fn quantifier_duality(e in arb_expr(), v in 0..NVARS) {
        // ∃v. f = ¬(∀v. ¬f)
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let ex = m.exists(f, &[v]);
        let nf = m.not(f);
        let fa = m.forall(nf, &[v]);
        let dual = m.not(fa);
        prop_assert_eq!(ex, dual);
    }

    #[test]
    fn cubes_partition_sat_count(e in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let total: u128 = m.cubes(f).map(|c| c.num_minterms()).sum();
        prop_assert_eq!(total, m.sat_count(f));
        // Every cube completion satisfies f.
        for cube in m.cubes(f) {
            prop_assert!(m.eval(f, &cube.to_vector(false)));
            prop_assert!(m.eval(f, &cube.to_vector(true)));
        }
    }

    #[test]
    fn minterms_are_models(e in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let mut seen = std::collections::HashSet::new();
        for v in m.minterms(f) {
            prop_assert!(m.eval(f, &v));
            prop_assert!(seen.insert(v), "duplicate minterm");
        }
        prop_assert_eq!(seen.len() as u128, m.sat_count(f));
    }

    #[test]
    fn compose_matches_substitution_semantics(e in arb_expr(), g in arb_expr(), v in 0..NVARS) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let gn = build(&mut m, &g);
        let composed = m.compose(f, v, gn);
        for env in assignments() {
            let mut patched = env.clone();
            patched[v as usize] = eval_expr(&g, &env);
            prop_assert_eq!(m.eval(composed, &env), eval_expr(&e, &patched));
        }
    }

    #[test]
    fn restrict_matches_cofactor_semantics(e in arb_expr(), v in 0..NVARS, value in any::<bool>()) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let r = m.restrict(f, v, value);
        // The result never depends on v.
        prop_assert!(!m.support(r).contains(&v));
        for env in assignments() {
            let mut patched = env.clone();
            patched[v as usize] = value;
            prop_assert_eq!(m.eval(r, &env), eval_expr(&e, &patched));
        }
    }

    #[test]
    fn gc_preserves_roots(e in arb_expr(), g in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let _garbage = build(&mut m, &g);
        let count_before = m.sat_count(f);
        let remap = m.gc(&[f]);
        let f2 = remap.map(f);
        prop_assert_eq!(m.sat_count(f2), count_before);
        for env in assignments() {
            prop_assert_eq!(m.eval(f2, &env), eval_expr(&e, &env));
        }
    }

    #[test]
    fn order_independence(e in arb_expr(), seed in any::<u64>()) {
        // The same function under a shuffled order evaluates identically.
        let mut order: Vec<u32> = (0..NVARS).collect();
        // Cheap deterministic shuffle from the seed.
        let mut s = seed | 1;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut m1 = Manager::new(NVARS as usize);
        let mut m2 = Manager::with_order(&order).unwrap();
        let f1 = build(&mut m1, &e);
        let f2 = build(&mut m2, &e);
        prop_assert_eq!(m1.sat_count(f1), m2.sat_count(f2));
        for env in assignments() {
            prop_assert_eq!(m1.eval(f1, &env), m2.eval(f2, &env));
        }
    }

    #[test]
    fn pick_minterm_is_model(e in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        match m.pick_minterm(f) {
            Some(v) => prop_assert!(m.eval(f, &v)),
            None => prop_assert_eq!(f, NodeId::FALSE),
        }
    }

    #[test]
    fn level_swaps_preserve_functions(e in arb_expr(), swaps in proptest::collection::vec(0..NVARS - 1, 0..12)) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let before: Vec<bool> = assignments().map(|env| m.eval(f, &env)).collect();
        for level in swaps {
            m.swap_adjacent_levels(level);
            let after: Vec<bool> = assignments().map(|env| m.eval(f, &env)).collect();
            prop_assert_eq!(&before, &after, "broken by swap at level {}", level);
        }
        // Canonicity survives: rebuilding the expression yields the same id.
        let f2 = build(&mut m, &e);
        prop_assert_eq!(f, f2);
        prop_assert_eq!(m.sat_count(f), before.iter().filter(|&&b| b).count() as u128);
    }

    #[test]
    fn sifting_preserves_functions(e in arb_expr(), g in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let f1 = build(&mut m, &e);
        let f2 = build(&mut m, &g);
        let before1: Vec<bool> = assignments().map(|env| m.eval(f1, &env)).collect();
        let before2: Vec<bool> = assignments().map(|env| m.eval(f2, &env)).collect();
        let mut roots = [f1, f2];
        let size = m.sift(&mut roots);
        let [f1, f2] = roots;
        prop_assert!(size <= m.live_size(&[f1, f2]) + 1);
        let after1: Vec<bool> = assignments().map(|env| m.eval(f1, &env)).collect();
        let after2: Vec<bool> = assignments().map(|env| m.eval(f2, &env)).collect();
        prop_assert_eq!(before1, after1);
        prop_assert_eq!(before2, after2);
    }

    // -----------------------------------------------------------------
    // Complement-edge canonicity properties.
    // -----------------------------------------------------------------

    #[test]
    fn negation_is_involutive_and_strict(e in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        let nf = m.not(f);
        // ¬f is never f — structural inequality is functional inequality.
        prop_assert_ne!(f, nf);
        // ¬¬f is f by NodeId equality, not just semantically.
        prop_assert_eq!(m.not(nf), f);
        // Negation shares the node: only the attribute differs.
        prop_assert_eq!(nf.index(), f.index());
        prop_assert_ne!(nf.is_complemented(), f.is_complemented());
    }

    #[test]
    fn no_hi_edge_is_complemented_after_any_op_sequence(
        e in arb_expr(),
        g in arb_expr(),
        v in 0..NVARS,
        swaps in proptest::collection::vec(0..NVARS - 1, 0..8)
    ) {
        // assert_canonical() checks the whole node table: no stored hi edge
        // carries the complement attribute, no redundant or duplicate nodes.
        let mut m = Manager::new(NVARS as usize);
        let f1 = build(&mut m, &e);
        let f2 = build(&mut m, &g);
        m.assert_canonical();
        let x = m.xor(f1, f2);
        let n = m.not(x);
        let _ = m.ite(n, f1, f2);
        let _ = m.restrict(n, v, true);
        let _ = m.compose(f1, v, f2);
        let _ = m.exists(n, &[v]);
        let _ = m.forall(n, &[v]);
        m.assert_canonical();
        for level in swaps {
            m.swap_adjacent_levels(level);
            m.assert_canonical();
        }
        let mut roots = [f1, f2, n];
        m.sift(&mut roots);
        let [f1, _, n] = roots;
        m.assert_canonical();
        let _remap = m.gc(&[f1, n]);
        m.assert_canonical();
    }

    #[test]
    fn random_ops_match_truth_table_oracle_12_vars(e in arb_expr_n(12)) {
        // Scalar bit-parallel oracle over all 4096 assignments of 12 vars.
        const N: u32 = 12;
        let mut m = Manager::new(N as usize);
        let f = build(&mut m, &e);
        m.assert_canonical();
        let table = truth_table(&e, N);
        for bits in 0usize..1 << N {
            let env: Vec<bool> = (0..N).map(|i| bits >> i & 1 == 1).collect();
            let want = table[bits / 64] >> (bits % 64) & 1 == 1;
            prop_assert_eq!(m.eval(f, &env), want, "assignment {:#014b}", bits);
        }
        let ones: u128 = table.iter().map(|w| w.count_ones() as u128).sum();
        prop_assert_eq!(m.sat_count(f), ones);
        let nf = m.not(f);
        prop_assert_eq!(m.sat_count(nf), (1u128 << N) - ones);
    }

    #[test]
    fn support_is_sound(e in arb_expr(), v in 0..NVARS) {
        // If v is not in the support, restricting it changes nothing.
        let mut m = Manager::new(NVARS as usize);
        let f = build(&mut m, &e);
        if !m.support(f).contains(&v) {
            let r1 = m.restrict(f, v, true);
            let r0 = m.restrict(f, v, false);
            prop_assert_eq!(r1, f);
            prop_assert_eq!(r0, f);
        }
    }
}
