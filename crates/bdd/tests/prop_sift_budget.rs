//! Property tests for `Manager::sift` under complement edges and *active*
//! work budgets.
//!
//! Sifting rewrites levels in place through its own `mk`, which never
//! consults the budget: a budget trip mid-swap would leave the node table
//! half-rewritten with dummy edges, so reordering must complete whatever
//! the budget state. These
//! properties pin that contract down:
//!
//! * sifting on the tightest possible un-tripped budget (zero further op
//!   steps, no new budgeted nodes) never trips, never charges the window,
//!   and preserves every root's function;
//! * canonicity and the pre-budget roots survive arbitrary interleavings of
//!   budgeted ops (which may trip), sifting, GC and window resets — and once
//!   the budget is lifted, rebuilding the same expressions reconverges on
//!   the same canonical `NodeId`s.

use dp_bdd::{BinOp, BudgetConfig, Manager, NodeId};
use proptest::prelude::*;

const NVARS: u32 = 5;

/// A random Boolean expression over `NVARS` variables (the same shape the
/// canonicity properties in `prop_bdd.rs` use).
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
        (0..NVARS).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
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
    }
}

fn eval_all(m: &Manager, f: NodeId) -> Vec<bool> {
    (0u32..1 << NVARS)
        .map(|bits| {
            let env: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            m.eval(f, &env)
        })
        .collect()
}

proptest! {
    #[test]
    fn sift_never_trips_an_active_budget(e in arb_expr(), g in arb_expr()) {
        let mut m = Manager::new(NVARS as usize);
        let f1 = build(&mut m, &e);
        let f2 = build(&mut m, &g);
        let before1 = eval_all(&m, f1);
        let before2 = eval_all(&m, f2);
        let trips_before = m.stats().budget_trips;

        // The tightest budget that has not yet tripped: zero further op
        // steps, and any budgeted node allocation would exceed max_nodes.
        m.set_budget(BudgetConfig {
            max_nodes: Some(m.num_nodes()),
            max_op_steps: Some(0),
        });
        let mut roots = [f1, f2];
        m.sift(&mut roots);
        let [f1, f2] = roots;

        prop_assert!(m.budget_exceeded().is_none(), "sift must be budget-exempt");
        prop_assert_eq!(m.op_steps(), 0, "sift charged the budget window");
        prop_assert_eq!(m.stats().budget_trips, trips_before);
        m.assert_canonical();
        prop_assert_eq!(eval_all(&m, f1), before1);
        prop_assert_eq!(eval_all(&m, f2), before2);
    }

    #[test]
    fn canonicity_survives_sift_gc_op_interleavings(
        e in arb_expr(),
        g in arb_expr(),
        script in proptest::collection::vec(0u8..5, 1..10),
        max_steps in 0u64..48,
    ) {
        let mut m = Manager::new(NVARS as usize);
        let mut f1 = build(&mut m, &e);
        let mut f2 = build(&mut m, &g);
        let want1 = eval_all(&m, f1);
        let want2 = eval_all(&m, f2);

        m.set_budget(BudgetConfig::with_max_op_steps(max_steps));
        for step in script {
            match step {
                // Budgeted ops: allowed to trip; their (dummy) results are
                // discarded, exactly as a budget-aware engine would.
                0 => { let _ = m.xor(f1, f2); }
                1 => { let _ = m.ite(f1, f2, NodeId::FALSE); }
                2 => {
                    let mut roots = [f1, f2];
                    m.sift(&mut roots);
                    [f1, f2] = roots;
                }
                3 => {
                    let remap = m.gc(&[f1, f2]);
                    f1 = remap.map(f1);
                    f2 = remap.map(f2);
                }
                _ => m.reset_budget_window(),
            }
            m.assert_canonical();
            // A tripped manager never allocates or caches, so the
            // pre-budget roots stay exact through every interleaving.
            prop_assert_eq!(&eval_all(&m, f1), &want1);
            prop_assert_eq!(&eval_all(&m, f2), &want2);
        }

        // Lifting the budget (which also clears any pending trip) and
        // rebuilding the same expressions must reconverge on the same
        // canonical nodes, whatever order sifting left behind.
        m.set_budget(BudgetConfig::UNLIMITED);
        let r1 = build(&mut m, &e);
        let r2 = build(&mut m, &g);
        prop_assert_eq!(r1, f1);
        prop_assert_eq!(r2, f2);
        m.assert_canonical();
    }
}
