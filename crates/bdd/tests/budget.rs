//! Budget semantics: sticky trips, clean recovery, and unlimited-budget
//! transparency.

use dp_bdd::{BddError, BudgetConfig, Manager, NodeId};

/// Builds the 8-variable parity function (size 8 chain — a known node count).
fn parity(m: &mut Manager) -> NodeId {
    let mut acc = m.constant(false);
    for v in 0..8 {
        let x = m.var(v);
        acc = m.xor(acc, x);
    }
    acc
}

#[test]
fn unlimited_budget_never_trips() {
    let mut m = Manager::new(8);
    assert!(m.budget().is_unlimited());
    let f = parity(&mut m);
    assert!(m.budget_exceeded().is_none());
    assert_eq!(m.sat_count(f), 128);
    assert!(
        m.op_steps() > 0,
        "op steps are counted even without a limit"
    );
}

#[test]
fn node_budget_trips_and_reports_the_snapshot() {
    let mut m = Manager::new(8);
    m.set_budget(BudgetConfig::with_max_nodes(4));
    let _ = parity(&mut m);
    let err = m.budget_exceeded().expect("parity needs more than 4 nodes");
    match err {
        BddError::BudgetExceeded { nodes, op_steps } => {
            assert!(nodes <= 4, "tripped before allocating past the cap");
            assert!(op_steps > 0);
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert!(m.num_nodes() <= 4, "a tripped manager never allocates");
}

#[test]
fn op_step_budget_trips() {
    let mut m = Manager::new(8);
    m.set_budget(BudgetConfig::with_max_op_steps(3));
    let _ = parity(&mut m);
    assert!(matches!(
        m.budget_exceeded(),
        Some(BddError::BudgetExceeded { .. })
    ));
}

#[test]
fn results_before_the_trip_stay_exact() {
    let mut m = Manager::new(8);
    m.set_budget(BudgetConfig::with_max_nodes(64));
    let a = m.var(0);
    let b = m.var(1);
    let ab = m.and(a, b);
    assert!(m.budget_exceeded().is_none());
    let exact = m.sat_count(ab);
    let _ = parity(&mut m); // blows the remaining budget or not — irrelevant
                            // Whatever happened afterwards, the pre-trip node still counts exactly.
    assert_eq!(m.sat_count(ab), exact);
    m.assert_canonical();
}

#[test]
fn table_stays_canonical_after_a_trip() {
    let mut m = Manager::new(8);
    m.set_budget(BudgetConfig::with_max_nodes(6));
    let _ = parity(&mut m);
    assert!(m.budget_exceeded().is_some());
    m.assert_canonical();
}

#[test]
fn reset_window_recovers_without_poisoned_state() {
    let mut m = Manager::new(8);
    m.set_budget(BudgetConfig::with_max_nodes(5));
    let _ = parity(&mut m);
    assert!(m.budget_exceeded().is_some());

    // Lift the budget, clear the trip, recompute: the answer must be the
    // exact one — nothing a tripped run cached may leak into it.
    m.set_budget(BudgetConfig::UNLIMITED);
    let f = parity(&mut m);
    assert!(m.budget_exceeded().is_none());
    assert_eq!(m.sat_count(f), 128);

    let mut fresh = Manager::new(8);
    let g = parity(&mut fresh);
    assert_eq!(fresh.sat_count(g), m.sat_count(f));
    for bits in 0u32..256 {
        let v: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
        assert_eq!(m.eval(f, &v), fresh.eval(g, &v), "divergence at {v:?}");
    }
    m.assert_canonical();
}

#[test]
fn generous_budget_is_transparent() {
    // A budget that never trips must be invisible: same nodes, same stats.
    let mut unlimited = Manager::new(8);
    let f1 = parity(&mut unlimited);
    let mut budgeted = Manager::new(8);
    budgeted.set_budget(BudgetConfig {
        max_nodes: Some(1 << 20),
        max_op_steps: Some(1 << 30),
    });
    let f2 = parity(&mut budgeted);
    assert!(budgeted.budget_exceeded().is_none());
    assert_eq!(f1, f2, "identical allocation order");
    assert_eq!(unlimited.num_nodes(), budgeted.num_nodes());
    assert_eq!(unlimited.stats(), budgeted.stats());
}

#[test]
fn set_budget_resets_the_window() {
    let mut m = Manager::new(8);
    m.set_budget(BudgetConfig::with_max_op_steps(1));
    let a = m.var(0);
    let b = m.var(1);
    let _ = m.and(a, b);
    assert!(m.budget_exceeded().is_some());
    m.set_budget(BudgetConfig::with_max_op_steps(1_000));
    assert!(m.budget_exceeded().is_none());
    assert_eq!(m.op_steps(), 0);
    let ab = m.and(a, b);
    assert!(m.budget_exceeded().is_none());
    assert_eq!(m.sat_count(ab), 64);
}

#[test]
fn sift_is_budget_exempt() {
    // Reordering rewrites nodes in place and must never see dummy edges,
    // even on a manager whose (tiny) budget is already tripped.
    let mut m = Manager::new(6);
    let mut roots: Vec<NodeId> = {
        let mut acc = Vec::new();
        let mut f = m.constant(false);
        for v in 0..6 {
            let x = m.var(v);
            f = m.xor(f, x);
            acc.push(f);
        }
        acc
    };
    let counts: Vec<u128> = roots.iter().map(|&r| m.sat_count(r)).collect();
    m.set_budget(BudgetConfig::with_max_op_steps(1));
    let a = m.var(0);
    let b = m.var(1);
    let _ = m.and(a, b); // trips
    assert!(m.budget_exceeded().is_some());
    m.sift(&mut roots);
    m.assert_canonical();
    let after: Vec<u128> = roots.iter().map(|&r| m.sat_count(r)).collect();
    assert_eq!(
        counts, after,
        "sifting on a tripped manager changed functions"
    );
}
