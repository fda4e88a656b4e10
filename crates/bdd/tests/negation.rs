//! Behavioural tests for O(1) attributed negation: constants, nodes next to
//! the terminal, shared subgraphs, interaction with the structural operators,
//! and the zero-allocation guarantee.

use dp_bdd::{Manager, NodeId};

#[test]
fn not_on_constants() {
    let m = Manager::new(2);
    assert_eq!(m.not(NodeId::TRUE), NodeId::FALSE);
    assert_eq!(m.not(NodeId::FALSE), NodeId::TRUE);
    let t = m.not(NodeId::TRUE);
    assert_eq!(m.not(t), NodeId::TRUE);
}

#[test]
fn not_on_terminal_adjacent_nodes() {
    // A single-variable node has both children on the terminal; its negation
    // must share the node and evaluate correctly everywhere.
    let mut m = Manager::new(2);
    let a = m.var(0);
    let na = m.not(a);
    assert_eq!(na, m.nvar(0));
    assert_eq!(na.index(), a.index());
    assert!(m.eval(na, &[false, false]));
    assert!(!m.eval(na, &[true, false]));
    // Cofactors of the complemented edge are the complemented cofactors.
    assert_eq!(m.node_lo(na), NodeId::TRUE);
    assert_eq!(m.node_hi(na), NodeId::FALSE);
}

#[test]
fn negation_shares_subgraphs() {
    // Build f and ¬f via independent spellings; every node must be shared,
    // so the manager holds size(f) internal nodes, not 2×.
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let ab = m.and(a, b);
    let f = m.xor(ab, c);
    let nodes_with_f = m.num_nodes();
    // ¬f spelled three ways: not(), xnor against the parts, De Morgan.
    let n1 = m.not(f);
    let n2 = m.xnor(ab, c);
    let x = m.xor(ab, c);
    let n3 = m.xor(x, NodeId::TRUE);
    assert_eq!(n1, n2);
    assert_eq!(n1, n3);
    assert_eq!(
        m.num_nodes(),
        nodes_with_f,
        "negations must reuse f's nodes"
    );
    assert_eq!(m.size(f), m.size(n1));
}

#[test]
fn not_interacts_with_restrict() {
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let ab = m.and(a, b);
    let f = m.or(ab, c);
    let nf = m.not(f);
    for v in 0..3u32 {
        for value in [false, true] {
            let r = m.restrict(f, v, value);
            let nr = m.restrict(nf, v, value);
            assert_eq!(nr, m.not(r), "restrict(¬f, {v}, {value}) ≠ ¬restrict(f)");
        }
    }
}

#[test]
fn not_interacts_with_compose() {
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let f = m.and(a, b);
    let nf = m.not(f);
    let g = m.xor(a, c);
    let comp = m.compose(f, 1, g);
    let ncomp = m.compose(nf, 1, g);
    assert_eq!(ncomp, m.not(comp));
    // Substituting a complemented function is also exact:
    // (a ∧ b)[b := ¬c]  =  a ∧ ¬c.
    let nc = m.not(c);
    let h = m.compose(f, 1, nc);
    let expect = m.and_not(a, c);
    assert_eq!(h, expect);
}

#[test]
fn not_interacts_with_exists() {
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let ab = m.and(a, b);
    let f = m.xor(ab, c);
    let nf = m.not(f);
    // ∃v.¬f = ¬∀v.f and ∀v.¬f = ¬∃v.f, by NodeId equality.
    for v in 0..3u32 {
        let e = m.exists(nf, &[v]);
        let fa = m.forall(f, &[v]);
        assert_eq!(e, m.not(fa), "∃{v}.¬f ≠ ¬∀{v}.f");
        let fa_n = m.forall(nf, &[v]);
        let e_f = m.exists(f, &[v]);
        assert_eq!(fa_n, m.not(e_f), "∀{v}.¬f ≠ ¬∃{v}.f");
    }
}

#[test]
fn not_allocates_zero_nodes() {
    // The regression the acceptance criteria demand: `not()` takes `&self`
    // (it *cannot* touch the node table) and a full pass of negations over
    // every function built so far changes neither the node count nor any
    // counter.
    let mut m = Manager::new(4);
    let vars: Vec<_> = (0..4).map(|v| m.var(v)).collect();
    let mut funcs = vars.clone();
    for w in vars.windows(2) {
        funcs.push(m.and(w[0], w[1]));
        funcs.push(m.xor(w[0], w[1]));
    }
    let nodes_before = m.num_nodes();
    let unique_lookups_before = m.stats().unique.lookups;
    let op_lookups_before = m.stats().op_cumulative_total().lookups;
    for &f in &funcs {
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(nnf, f);
        assert_ne!(nf, f);
    }
    assert_eq!(m.num_nodes(), nodes_before, "not() allocated nodes");
    let s = m.stats();
    assert_eq!(
        s.unique.lookups, unique_lookups_before,
        "not() hit the unique table"
    );
    assert_eq!(
        s.op_cumulative_total().lookups,
        op_lookups_before,
        "not() probed the op cache"
    );
}

// ---------------------------------------------------------------------------
// DOT output smoke tests: the emitted graph must parse (balanced braces) and
// be closed (every referenced node id is declared).
// ---------------------------------------------------------------------------

/// Minimal structural check over the emitted DOT text.
fn check_dot(dot: &str) {
    let opens = dot.matches('{').count();
    let closes = dot.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in:\n{dot}");
    assert!(dot.trim_start().starts_with("digraph"), "not a digraph");
    assert!(dot.trim_end().ends_with('}'), "missing closing brace");
    // Collect declared ids (lines "  <id> [label=...];") and referenced ids
    // (lines "  <a> -> <b> ...;").
    let mut declared = std::collections::HashSet::new();
    let mut referenced = std::collections::HashSet::new();
    for line in dot.lines() {
        let line = line.trim();
        if let Some((lhs, rhs)) = line.split_once(" -> ") {
            referenced.insert(lhs.trim().to_string());
            let target = rhs
                .split([' ', ';', '['])
                .next()
                .unwrap_or("")
                .trim()
                .to_string();
            referenced.insert(target);
        } else if let Some((id, rest)) = line.split_once(' ') {
            if rest.starts_with('[') {
                declared.insert(id.trim().to_string());
            }
        }
    }
    for id in &referenced {
        assert!(
            declared.contains(id),
            "referenced id {id} is not declared in:\n{dot}"
        );
    }
}

#[test]
fn dot_output_parses_for_regular_and_complemented_roots() {
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let ab = m.and(a, b);
    let f = m.xor(ab, c);
    let nf = m.not(f);
    check_dot(&m.to_dot(f, "f"));
    check_dot(&m.to_dot(nf, "not_f"));
}

#[test]
fn dot_output_parses_for_terminals() {
    let m = Manager::new(1);
    check_dot(&m.to_dot(NodeId::TRUE, "one"));
    check_dot(&m.to_dot(NodeId::FALSE, "zero"));
}

#[test]
fn dot_marks_complement_arcs_dashed_and_hi_arcs_solid() {
    let mut m = Manager::new(2);
    let a = m.var(0);
    let b = m.var(1);
    let f = m.nand(a, b);
    let dot = m.to_dot(f, "nand");
    assert!(
        dot.contains("style=dashed"),
        "no dashed complement arc:\n{dot}"
    );
    // The canonical form guarantees hi (then) edges are plain solid arrows:
    // every "a -> b;" line with no style attribute is a hi edge.
    assert!(
        dot.lines()
            .any(|l| l.contains("->") && !l.contains("style")),
        "no solid hi arc:\n{dot}"
    );
}
