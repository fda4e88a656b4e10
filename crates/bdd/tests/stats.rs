//! Behavioural tests for the `ManagerStats` observability layer: which
//! operations feed which counters, and that every counter survives a GC or
//! an op-cache clear.

use dp_bdd::{Manager, NodeId, OpKind};

/// `hits + misses == lookups` for the unique table and every op family —
/// the counters are incremented independently, so this is a real check.
fn assert_internally_consistent(m: &Manager) {
    let s = m.stats();
    assert_eq!(s.unique.hits + s.unique.misses, s.unique.lookups, "unique");
    for kind in OpKind::ALL {
        let c = s[kind];
        assert_eq!(c.hits + c.misses, c.lookups, "{kind:?}");
    }
    let t = s.op_cumulative_total();
    assert_eq!(t.hits + t.misses, t.lookups, "op total");
    assert!(s.peak_nodes >= m.num_nodes(), "peak below live node count");
}

#[test]
fn fresh_manager_has_empty_counters() {
    let m = Manager::new(4);
    let s = m.stats();
    assert_eq!(s.unique.lookups, 0);
    assert_eq!(s.op_cumulative_total().lookups, 0);
    assert_eq!(s.gc_runs, 0);
    assert_eq!(s.peak_nodes, 1); // the single shared terminal
    assert_internally_consistent(&m);
}

#[test]
fn apply_feeds_per_connective_counters() {
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let ab = m.and(a, b);
    let _ = m.or(ab, c);
    let _ = m.xor(a, c);
    let s = m.stats();
    assert!(s[OpKind::And].lookups > 0);
    assert!(s[OpKind::Or].lookups > 0);
    assert!(s[OpKind::Xor].lookups > 0);
    assert_eq!(s[OpKind::Ite].lookups, 0);
    assert_internally_consistent(&m);
}

#[test]
fn repeated_apply_hits_the_cache() {
    let mut m = Manager::new(2);
    let a = m.var(0);
    let b = m.var(1);
    let f1 = m.xor(a, b);
    let misses_after_first = m.stats()[OpKind::Xor].misses;
    // Same call again: served from the op cache in one probe.
    let f2 = m.xor(a, b);
    assert_eq!(f1, f2);
    let s = m.stats();
    assert_eq!(s[OpKind::Xor].misses, misses_after_first);
    assert!(s[OpKind::Xor].hits >= 1);
    // Commuted operands share the canonicalised cache entry.
    let f3 = m.xor(b, a);
    assert_eq!(f1, f3);
    assert_eq!(m.stats()[OpKind::Xor].misses, misses_after_first);
    assert_internally_consistent(&m);
}

#[test]
fn terminal_shortcuts_bypass_the_cache() {
    let mut m = Manager::new(2);
    let a = m.var(0);
    // All resolved by terminal rules before any cache probe.
    let _ = m.and(a, NodeId::FALSE);
    let _ = m.or(a, NodeId::TRUE);
    let _ = m.and(a, a);
    let s = m.stats();
    assert_eq!(s[OpKind::And].lookups, 0);
    assert_eq!(s[OpKind::Or].lookups, 0);
}

#[test]
fn ite_restrict_compose_and_quantifiers_are_tracked() {
    let mut m = Manager::new(4);
    let s0 = m.var(0);
    let a = m.var(1);
    let b = m.var(2);
    let c = m.var(3);
    let mux = m.ite(s0, a, b);
    let _ = m.restrict(mux, 1, true);
    let _ = m.compose(mux, 2, c);
    let _ = m.exists(mux, &[0, 1]);
    let _ = m.forall(mux, &[2]);
    let s = m.stats();
    assert!(s[OpKind::Ite].lookups > 0);
    assert!(s[OpKind::Restrict].lookups > 0);
    assert!(s[OpKind::Compose].lookups > 0);
    assert!(s[OpKind::Exists].lookups > 0);
    assert!(s[OpKind::Forall].lookups > 0);
    assert_internally_consistent(&m);
}

#[test]
fn unique_table_counters_see_hits_on_shared_structure() {
    let mut m = Manager::new(2);
    let a = m.var(0); // miss: new node
    let misses = m.stats().unique.misses;
    let a2 = m.var(1 - 1); // same node: unique-table hit
    assert_eq!(a, a2);
    let s = m.stats();
    assert_eq!(s.unique.misses, misses);
    assert!(s.unique.hits >= 1);
}

#[test]
fn peak_nodes_survives_gc_compaction() {
    let mut m = Manager::new(6);
    let vars: Vec<_> = (0..6).map(|v| m.var(v)).collect();
    let mut f = vars[0];
    for &v in &vars[1..] {
        let x = m.xor(f, v);
        f = m.and(x, v);
    }
    let peak_before = m.stats().peak_nodes;
    assert!(peak_before > 1);
    let remap = m.gc(&[]); // collect everything
    drop(remap);
    assert_eq!(m.num_nodes(), 1);
    let s = m.stats();
    assert_eq!(s.peak_nodes, peak_before, "peak must not shrink across gc");
    assert_eq!(s.gc_runs, 1);
}

#[test]
fn gc_keeps_every_counter() {
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let f = m.and(a, b);
    let _ = m.and(a, b); // guaranteed op-cache hit
    let before = m.stats().clone();
    assert!(before[OpKind::And].lookups > 0);
    assert!(before.unique.lookups > 0);

    let remap = m.gc(&[f]);
    let f = remap.map(f);

    // A collection drops the op cache's entries, never its counters.
    let s = m.stats();
    assert_eq!(s.unique.lookups, before.unique.lookups);
    assert_eq!(s.peak_nodes, before.peak_nodes);
    assert_eq!(s.gc_runs, 1);
    assert_eq!(s[OpKind::And].lookups, before[OpKind::And].lookups);
    assert_eq!(
        s.op_cumulative_total(),
        before.op_cumulative_total(),
        "op-cache lookups must survive gc"
    );
    assert_eq!(s.op_steps, before.op_steps, "op_steps must survive gc");

    // The cleared cache starts cold: a new apply misses, and the counters
    // keep growing on top of the history.
    let g = m.var(2);
    let _ = m.and(f, g);
    let s = m.stats();
    assert!(s[OpKind::And].misses > before[OpKind::And].misses);
    assert!(s.op_cumulative_total().lookups > before.op_cumulative_total().lookups);
    assert_internally_consistent(&m);
}

#[test]
fn not_generates_no_cache_traffic_and_no_nodes() {
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let f = m.and(a, b);
    let nodes_before = m.num_nodes();
    let stats_before = m.stats().clone();
    let nf = m.not(f);
    let nnf = m.not(nf);
    assert_eq!(nnf, f);
    assert_eq!(m.num_nodes(), nodes_before, "not() allocated");
    let s = m.stats();
    assert_eq!(
        s.op_cumulative_total(),
        stats_before.op_cumulative_total(),
        "not() probed the op cache"
    );
    assert_eq!(s.unique.lookups, stats_before.unique.lookups);
}

#[test]
fn clear_op_cache_keeps_every_counter() {
    let mut m = Manager::new(2);
    let a = m.var(0);
    let b = m.var(1);
    let _ = m.or(a, b);
    let unique_before = m.stats().unique;
    assert!(m.stats()[OpKind::Or].lookups > 0);

    let cumulative_before = m.stats().op_cumulative_total();
    m.clear_op_cache();

    let s = m.stats();
    assert_eq!(s.unique, unique_before);
    assert_eq!(s.gc_runs, 0, "clear_op_cache is not a gc");
    assert_eq!(
        s.op_cumulative_total(),
        cumulative_before,
        "clear_op_cache must keep the op-cache counters"
    );
}

#[test]
fn op_steps_and_budget_trips_accumulate_in_stats() {
    use dp_bdd::BudgetConfig;
    let mut m = Manager::new(6);
    m.set_budget(BudgetConfig::with_max_op_steps(4));
    let vars: Vec<_> = (0..6).map(|v| m.var(v)).collect();
    let mut f = vars[0];
    for &v in &vars[1..] {
        f = m.xor(f, v); // enough work to exceed 4 op steps
    }
    assert!(m.budget_exceeded().is_some());
    let s = m.stats().clone();
    assert_eq!(s.budget_trips, 1, "one sticky trip per window");
    assert!(s.op_steps > 4);

    // A window reset clears the manager's per-window tally but not the
    // lifetime stats; a second trip counts again.
    m.reset_budget_window();
    assert_eq!(m.op_steps(), 0);
    assert_eq!(m.stats().op_steps, s.op_steps);
    let mut g = vars[0];
    for &v in &vars[1..] {
        g = m.xor(g, v);
    }
    let _ = g;
    assert!(m.budget_exceeded().is_some());
    let s2 = m.stats();
    assert_eq!(s2.budget_trips, 2);
    assert!(s2.op_steps > s.op_steps);
}

#[test]
fn merged_aggregates_two_managers() {
    let build = |seed_var: u32| {
        let mut m = Manager::new(4);
        let a = m.var(seed_var);
        let b = m.var(3);
        let _ = m.xor(a, b);
        m
    };
    let m1 = build(0);
    let m2 = build(1);
    let merged = m1.stats().merged(m2.stats());
    assert_eq!(
        merged.unique.lookups,
        m1.stats().unique.lookups + m2.stats().unique.lookups
    );
    assert_eq!(
        merged[OpKind::Xor].lookups,
        m1.stats()[OpKind::Xor].lookups + m2.stats()[OpKind::Xor].lookups
    );
    assert_eq!(
        merged.peak_nodes,
        m1.stats().peak_nodes.max(m2.stats().peak_nodes)
    );
}

#[test]
fn display_renders_summary_lines() {
    let mut m = Manager::new(2);
    let a = m.var(0);
    let b = m.var(1);
    let _ = m.and(a, b);
    let text = m.stats().to_string();
    assert!(text.contains("unique:"));
    assert!(text.contains("op cache:"));
    assert!(text.contains("and"));
}
