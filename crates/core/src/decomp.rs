//! Cut-point functional decomposition (the paper's reference \[21\]).
//!
//! For its largest circuits (C499 upward) the paper "used functional
//! decomposition to speed up Difference Propagation", accepting that the
//! stuck-at-equivalence fractions "may not be completely accurate due to
//! the decomposition masking some functional interactions". The referenced
//! manuscript (Hung, Butler & Mercer) is unpublished; this module
//! implements the standard cut-point reading of that idea:
//!
//! * selected internal nets become **cut points**: downstream good
//!   functions see a *fresh free variable* instead of the net's function,
//!   which bounds the good-function *build* at the cut. It does not bound
//!   the analyses: on c499s (64 cuts at 200 nodes) the build peaks at
//!   1,869 nodes against 82,769 exact, but analysing the first 8
//!   checkpoint faults peaks at 253,794 nodes and takes 2,202,901 op steps
//!   against 145,791 and 1,161,163 exact (the cut-point group of
//!   `diffprop figures --only ablations`);
//! * fault analysis runs unchanged over the extended variable space
//!   (primary inputs + cut variables);
//! * detectabilities are then *approximations* — densities computed as if
//!   cut values were uniform and independent of the inputs — exactly the
//!   kind of masking the paper warns about.
//!
//! [`GoodFunctions::build_with_cuts`] takes an explicit cut list;
//! [`GoodFunctions::build_auto_decomposed`] inserts cuts greedily whenever
//! a net's BDD exceeds a size threshold. An engine over a decomposed build
//! is thawed like any other:
//! `DiffProp::from_snapshot(circuit, &good.freeze(), config)`.

use dp_bdd::{Manager, Var};
use dp_netlist::{Circuit, NetId};

use crate::good::{build_nets, GoodFunctions};

impl GoodFunctions {
    /// Builds good functions with the given nets replaced by fresh cut
    /// variables for all downstream logic. Variables `0..num_inputs` are
    /// the PIs (declared order); variable `num_inputs + k` is the `k`-th
    /// cut.
    ///
    /// With an empty `cuts` list this is exactly [`GoodFunctions::build`].
    ///
    /// # Panics
    ///
    /// Panics if a cut net is a primary input (cutting a PI is meaningless)
    /// or listed twice.
    pub fn build_with_cuts(circuit: &Circuit, cuts: &[NetId]) -> Self {
        for (i, c) in cuts.iter().enumerate() {
            assert!(!circuit.is_input(*c), "cut {c} is a primary input");
            assert!(!cuts[..i].contains(c), "cut {c} listed twice");
        }
        let n_pi = circuit.num_inputs();
        let mut manager = Manager::new(n_pi + cuts.len());
        let funcs = build_nets(circuit, &mut manager, |m, net, f| {
            // Downstream logic sees the free cut variable.
            match cuts.iter().position(|&c| c == net) {
                Some(k) => m.var((n_pi + k) as Var),
                None => f,
            }
        });
        GoodFunctions::from_parts(manager, funcs)
    }

    /// Builds good functions, inserting a cut at every net whose BDD would
    /// otherwise exceed `node_threshold` live nodes. Returns the functions
    /// and the chosen cut nets (topological order).
    ///
    /// This needs the prospective cut count up front (managers have a fixed
    /// variable count), so it runs a sizing pass first; the cost is one
    /// extra build of the uncut prefix.
    ///
    /// # Panics
    ///
    /// Panics if `node_threshold` is zero.
    pub fn build_auto_decomposed(circuit: &Circuit, node_threshold: usize) -> (Self, Vec<NetId>) {
        assert!(node_threshold > 0, "threshold must be positive");
        // Sizing pass: build with a generous variable budget (every gate
        // could in principle be cut) and record where cuts are needed.
        let n_pi = circuit.num_inputs();
        let mut manager = Manager::new(n_pi + circuit.num_gates());
        let mut cuts: Vec<NetId> = Vec::new();
        build_nets(circuit, &mut manager, |m, net, f| {
            if m.size(f) > node_threshold {
                cuts.push(net);
                m.var((n_pi + cuts.len() - 1) as Var)
            } else {
                f
            }
        });
        // Rebuild compactly with exactly the chosen cuts.
        let good = Self::build_with_cuts(circuit, &cuts);
        (good, cuts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DiffProp, EngineConfig};
    use dp_faults::{checkpoint_faults, Fault};
    use dp_netlist::generators::{c17, c499_surrogate, c95};

    #[test]
    fn empty_cuts_equal_exact_build() {
        let c = c95();
        let exact = GoodFunctions::build(&c);
        let cut = GoodFunctions::build_with_cuts(&c, &[]);
        for n in c.nets() {
            assert_eq!(
                exact.manager().density(exact.node(n)),
                cut.manager().density(cut.node(n))
            );
        }
    }

    #[test]
    fn cut_net_becomes_free_variable() {
        let c = c17();
        let g16 = c.find_net("16").unwrap();
        let good = GoodFunctions::build_with_cuts(&c, &[g16]);
        // The cut net's downstream view is a bare variable: density 0.5,
        // support = the cut variable alone.
        assert_eq!(good.manager().density(good.node(g16)), 0.5);
        assert_eq!(good.manager().support(good.node(g16)), vec![5]);
    }

    #[test]
    #[should_panic(expected = "is a primary input")]
    fn cutting_a_pi_is_rejected() {
        let c = c17();
        let pi = c.inputs()[0];
        GoodFunctions::build_with_cuts(&c, &[pi]);
    }

    #[test]
    fn auto_decomposition_caps_node_sizes() {
        let c = c499_surrogate();
        let exact = GoodFunctions::build(&c);
        let (decomposed, cuts) = GoodFunctions::build_auto_decomposed(&c, 200);
        assert!(!cuts.is_empty(), "c499s should need cuts at threshold 200");
        assert!(
            decomposed.num_nodes() < exact.num_nodes() / 2,
            "decomposed {} vs exact {}",
            decomposed.num_nodes(),
            exact.num_nodes()
        );
        for n in c.nets() {
            assert!(
                decomposed.manager().size(decomposed.node(n)) <= 220,
                "net {} still large",
                c.net_name(n)
            );
        }
    }

    #[test]
    fn decomposed_analysis_runs_and_approximates() {
        let c = c499_surrogate();
        let (good, _cuts) = GoodFunctions::build_auto_decomposed(&c, 200);
        let mut approx = DiffProp::from_snapshot(&c, &good.freeze(), EngineConfig::default());
        let mut exact = DiffProp::new(&c);
        // PI faults: sampled comparison. The approximation must agree on
        // detectable-vs-not and stay within a loose band on probability.
        for f in checkpoint_faults(&c).into_iter().step_by(37).take(12) {
            let fault = Fault::from(f);
            let a = approx.analyze(&fault);
            let e = exact.analyze(&fault);
            assert_eq!(a.is_detectable(), e.is_detectable(), "{fault}");
            assert!(
                (a.detectability - e.detectability).abs() < 0.35,
                "{fault}: approx {} vs exact {}",
                a.detectability,
                e.detectability
            );
        }
    }
}
