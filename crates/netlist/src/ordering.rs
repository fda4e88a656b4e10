//! Static variable-ordering heuristic for OBDD construction.
//!
//! The paper's §2.2 notes the declared input order of the benchmark netlists
//! is "probably meaningful"; it is, but only barely — on the deeper
//! surrogates (`c432s`, `c499s`, …) the identity order is the dominant cost
//! of every sweep. This module derives a better static order from circuit
//! structure alone, before a single BDD node is allocated:
//! [`fanin_dfs_order`], the classical fanin-weighted depth-first traversal
//! (Fujita / Malik). It walks each output cone depth-first, visiting the
//! structurally *deepest* fanin first, and assigns OBDD levels to primary
//! inputs in first-visit order. Inputs that feed the same reconvergent logic
//! end up adjacent, which is exactly what keeps OBDD widths small.
//!
//! The result is a permutation `order` of the input indices — `order[l]` is
//! the position in [`Circuit::inputs`] placed at OBDD level `l` — ready for
//! `dp_bdd::Manager::with_order` (via
//! `dp_core::GoodFunctions::build_with_order`). It is a deterministic
//! function of the circuit, so orders never drift between runs.

use crate::circuit::{Circuit, Driver, NetId};

/// Fanin-weighted depth-first order: inputs in first-visit order of a DFS
/// that explores the deepest fanin subtree first.
///
/// Outputs are walked in decreasing structural depth (ties broken by
/// declared order), so the hardest cone stakes out the top levels. Inputs
/// unreachable from any output keep their relative declared order at the
/// bottom.
///
/// # Examples
///
/// ```
/// use dp_netlist::generators::c17;
/// use dp_netlist::ordering::fanin_dfs_order;
///
/// let c = c17();
/// let order = fanin_dfs_order(&c);
/// let mut sorted = order.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, (0..c.num_inputs() as u32).collect::<Vec<_>>());
/// ```
pub fn fanin_dfs_order(circuit: &Circuit) -> Vec<u32> {
    let depth = circuit.levels_from_inputs();
    let input_index = input_index_map(circuit);
    let mut order: Vec<u32> = Vec::with_capacity(circuit.num_inputs());
    let mut visited = vec![false; circuit.num_nets()];

    let mut outputs: Vec<NetId> = circuit.outputs().to_vec();
    // Deepest cone first; stable sort keeps declared order on ties.
    outputs.sort_by_key(|o| std::cmp::Reverse(depth[o.index()]));

    for output in outputs {
        dfs(
            circuit,
            output,
            &depth,
            &input_index,
            &mut visited,
            &mut order,
        );
    }
    append_unvisited(circuit, &input_index, &visited, &mut order);
    order
}

/// Iterative DFS from `net`, pushing the *shallowest* fanins first so the
/// deepest is popped (visited) first. Appends primary-input indices in
/// first-visit order.
fn dfs(
    circuit: &Circuit,
    net: NetId,
    depth: &[u32],
    input_index: &[Option<u32>],
    visited: &mut [bool],
    order: &mut Vec<u32>,
) {
    let mut stack = vec![net];
    while let Some(n) = stack.pop() {
        if visited[n.index()] {
            continue;
        }
        visited[n.index()] = true;
        match circuit.driver(n) {
            Driver::Input => {
                if let Some(i) = input_index[n.index()] {
                    order.push(i);
                }
            }
            Driver::Gate { fanins, .. } => {
                // Sort ascending by (depth, declared position): popping from
                // the stack end then explores the deepest subtree first.
                let mut fanins: Vec<NetId> = fanins.clone();
                fanins.sort_by_key(|f| (depth[f.index()], f.index()));
                stack.extend(fanins);
            }
        }
    }
}

/// `input_index[net] = Some(i)` when the net is the `i`-th declared input.
fn input_index_map(circuit: &Circuit) -> Vec<Option<u32>> {
    let mut map = vec![None; circuit.num_nets()];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        map[pi.index()] = Some(i as u32);
    }
    map
}

/// Appends inputs never reached from any output, in declared order.
fn append_unvisited(
    circuit: &Circuit,
    input_index: &[Option<u32>],
    visited: &[bool],
    order: &mut Vec<u32>,
) {
    for &pi in circuit.inputs() {
        if !visited[pi.index()] {
            if let Some(i) = input_index[pi.index()] {
                order.push(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{alu74181, c1355_surrogate, c17, c432_surrogate, c95, full_adder};

    fn assert_permutation(order: &[u32], n: usize) {
        assert_eq!(order.len(), n, "order length");
        let mut seen = vec![false; n];
        for &v in order {
            assert!((v as usize) < n, "out of range var {v}");
            assert!(!seen[v as usize], "duplicate var {v}");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn fanin_dfs_is_a_permutation_on_every_generator() {
        for circuit in [
            c17(),
            full_adder(),
            c95(),
            alu74181(),
            c432_surrogate(),
            c1355_surrogate(),
        ] {
            let n = circuit.num_inputs();
            assert_permutation(&fanin_dfs_order(&circuit), n);
        }
    }

    #[test]
    fn orders_are_deterministic() {
        let c = c432_surrogate();
        assert_eq!(fanin_dfs_order(&c), fanin_dfs_order(&c));
    }

    #[test]
    fn dfs_groups_cone_inputs_on_c17() {
        // c17's deepest outputs share inputs; the DFS order must start with
        // inputs of the deepest cone, not the declared first input per se.
        let c = c17();
        let order = fanin_dfs_order(&c);
        assert_permutation(&order, c.num_inputs());
        // First visited input belongs to the deepest output's cone.
        let depth = c.levels_from_inputs();
        let deepest = c
            .outputs()
            .iter()
            .max_by_key(|o| depth[o.index()])
            .copied()
            .unwrap();
        let cone = c.fanin_cone(deepest);
        let first_pi = c.inputs()[order[0] as usize];
        assert!(cone.contains(&first_pi), "first level not in deepest cone");
    }
}
