//! The PODEM search: implication, objective, backtrace, backtrack.

use dp_faults::{FaultSite, StuckAtFault};
use dp_netlist::{Circuit, Driver, GateKind, NetId, Scoap};

use crate::fivev::{eval_tern, FiveV, Tern};

/// Outcome of a PODEM run for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemResult {
    /// A test vector (one value per primary input, declared order;
    /// don't-care inputs are filled with `false`).
    Test(Vec<bool>),
    /// Proven untestable: the whole input space was (implicitly) searched.
    Untestable,
    /// The backtrack limit was exhausted before a verdict.
    Aborted,
}

/// Search-effort counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PodemStats {
    /// Decisions taken (PI assignments).
    pub decisions: usize,
    /// Backtracks performed.
    pub backtracks: usize,
    /// Full implication passes.
    pub implications: usize,
}

/// Generates one test for a single stuck-at fault, or proves it untestable.
///
/// `backtrack_limit` bounds the search; hitting it yields
/// [`PodemResult::Aborted`] (the classical engineering compromise — exact
/// analyses like Difference Propagation never abort).
///
/// # Examples
///
/// See the [crate docs](crate).
pub fn generate_test(
    circuit: &Circuit,
    fault: &StuckAtFault,
    backtrack_limit: usize,
) -> PodemResult {
    generate_test_with_stats(circuit, fault, backtrack_limit).0
}

/// As [`generate_test`], also returning effort counters.
pub fn generate_test_with_stats(
    circuit: &Circuit,
    fault: &StuckAtFault,
    backtrack_limit: usize,
) -> (PodemResult, PodemStats) {
    let mut podem = Podem::new(circuit, fault);
    let result = podem.run(backtrack_limit);
    (result, podem.stats)
}

/// One decision-stack frame.
#[derive(Debug)]
struct Decision {
    pi_index: usize,
    value: bool,
    flipped: bool,
}

struct Podem<'c> {
    circuit: &'c Circuit,
    fault: StuckAtFault,
    scoap: Scoap,
    /// Current PI assignment (indexed like `circuit.inputs()`).
    pi_values: Vec<Tern>,
    /// Net values from the last implication.
    values: Vec<FiveV>,
    /// `pi_of[net] = Some(input index)` for primary-input nets.
    pi_of: Vec<Option<usize>>,
    stack: Vec<Decision>,
    stats: PodemStats,
}

impl<'c> Podem<'c> {
    fn new(circuit: &'c Circuit, fault: &StuckAtFault) -> Self {
        let mut pi_of = vec![None; circuit.num_nets()];
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            pi_of[pi.index()] = Some(i);
        }
        Podem {
            circuit,
            fault: *fault,
            scoap: Scoap::compute(circuit),
            pi_values: vec![Tern::X; circuit.num_inputs()],
            values: vec![FiveV::X; circuit.num_nets()],
            pi_of,
            stack: Vec::new(),
            stats: PodemStats::default(),
        }
    }

    fn run(&mut self, backtrack_limit: usize) -> PodemResult {
        loop {
            self.imply();
            if self.test_found() {
                let vector = self.pi_values.iter().map(|&t| t == Tern::One).collect();
                return PodemResult::Test(vector);
            }
            if self.failed() {
                // Chronological backtracking.
                loop {
                    match self.stack.last_mut() {
                        None => return PodemResult::Untestable,
                        Some(top) if !top.flipped => {
                            top.value = !top.value;
                            top.flipped = true;
                            let (pi, v) = (top.pi_index, top.value);
                            self.pi_values[pi] = Tern::from_bool(v);
                            self.stats.backtracks += 1;
                            break;
                        }
                        Some(_) => {
                            let dead = self.stack.pop().expect("non-empty");
                            self.pi_values[dead.pi_index] = Tern::X;
                        }
                    }
                }
                if self.stats.backtracks > backtrack_limit {
                    return PodemResult::Aborted;
                }
                continue;
            }
            // Choose an objective and back-trace it to an input assignment.
            let (obj_net, obj_val) = self.objective();
            let (pi, value) = self.backtrace(obj_net, obj_val);
            self.pi_values[pi] = Tern::from_bool(value);
            self.stack.push(Decision {
                pi_index: pi,
                value,
                flipped: false,
            });
            self.stats.decisions += 1;
        }
    }

    /// Full forward implication with fault injection.
    fn imply(&mut self) {
        self.stats.implications += 1;
        let stuck = Tern::from_bool(self.fault.value);
        let branch = match self.fault.site {
            FaultSite::Branch(b) => Some((b.sink.index(), b.pin)),
            FaultSite::Net(_) => None,
        };
        let net_site = match self.fault.site {
            FaultSite::Net(n) => Some(n.index()),
            FaultSite::Branch(_) => None,
        };
        let mut goods: Vec<Tern> = Vec::new();
        let mut faults: Vec<Tern> = Vec::new();
        for net in self.circuit.nets() {
            let idx = net.index();
            let v = match self.circuit.driver(net) {
                Driver::Input => {
                    let t = self.pi_values[self.pi_of[idx].expect("PI net")];
                    FiveV { good: t, faulty: t }
                }
                Driver::Gate { kind, fanins } => {
                    goods.clear();
                    faults.clear();
                    for (pin, f) in fanins.iter().enumerate() {
                        let fv = self.values[f.index()];
                        goods.push(fv.good);
                        let mut fy = fv.faulty;
                        if branch == Some((idx, pin)) {
                            fy = stuck;
                        }
                        faults.push(fy);
                    }
                    FiveV {
                        good: eval_tern(*kind, &goods),
                        faulty: eval_tern(*kind, &faults),
                    }
                }
            };
            let mut v = v;
            if net_site == Some(idx) {
                v.faulty = stuck;
            }
            self.values[idx] = v;
        }
    }

    /// A test exists when some PO carries a fault effect.
    fn test_found(&self) -> bool {
        self.circuit
            .outputs()
            .iter()
            .any(|o| self.values[o.index()].is_error())
    }

    /// The current partial assignment can no longer lead to a test.
    fn failed(&self) -> bool {
        // Excitation: the good value at the fault site must be the opposite
        // of the stuck value.
        let site_good = self.values[self.fault.site.net().index()].good;
        if site_good == Tern::from_bool(self.fault.value) {
            return true;
        }
        if !self.activated() {
            return false; // still working on excitation
        }
        // Propagation: with the fault active, some gate must still be able
        // to extend the error towards a PO.
        !self.test_found() && self.d_frontier().is_empty()
    }

    /// The fault effect is present at the site.
    fn activated(&self) -> bool {
        match self.fault.site {
            FaultSite::Net(n) => self.values[n.index()].is_error(),
            FaultSite::Branch(b) => {
                // The branch is pinned; the effect exists once the stem's
                // good value opposes the stuck value.
                self.values[b.stem.index()].good == Tern::from_bool(!self.fault.value)
            }
        }
    }

    /// Gates with an error on some input and an undetermined output.
    fn d_frontier(&self) -> Vec<NetId> {
        let mut frontier = Vec::new();
        for net in self.circuit.gates() {
            let out = self.values[net.index()];
            if out.is_determined() {
                continue;
            }
            let Driver::Gate { fanins, .. } = self.circuit.driver(net) else {
                continue;
            };
            let has_error = fanins.iter().enumerate().any(|(pin, f)| {
                let fv = self.values[f.index()];
                let faulty = match self.fault.site {
                    FaultSite::Branch(b) if b.sink == net && b.pin == pin => {
                        Tern::from_bool(self.fault.value)
                    }
                    _ => fv.faulty,
                };
                fv.good.is_determined() && faulty.is_determined() && fv.good != faulty
            });
            if has_error {
                frontier.push(net);
            }
        }
        frontier
    }

    /// The next (net, value) objective: excite the fault, then advance the
    /// D-frontier.
    fn objective(&self) -> (NetId, bool) {
        if !self.activated() {
            return (self.fault.site.net(), !self.fault.value);
        }
        let frontier = self.d_frontier();
        let gate = frontier[0];
        let Driver::Gate { kind, fanins } = self.circuit.driver(gate) else {
            unreachable!("frontier gates are gates");
        };
        // Set an undetermined side input to the non-controlling value.
        let pin = fanins
            .iter()
            .find(|f| !self.values[f.index()].good.is_determined())
            .expect("undetermined output implies an undetermined input");
        let value = match kind {
            GateKind::And | GateKind::Nand => true,
            GateKind::Or | GateKind::Nor => false,
            // XOR family has no controlling value; either works.
            GateKind::Xor | GateKind::Xnor => false,
            GateKind::Not | GateKind::Buf => {
                unreachable!("unary gates never sit on the D-frontier with a side input")
            }
        };
        (*pin, value)
    }

    /// Walks an objective back to an unassigned primary input, choosing
    /// easy/hard fanins by SCOAP cost as is conventional.
    fn backtrace(&self, mut net: NetId, mut value: bool) -> (usize, bool) {
        loop {
            if let Some(pi) = self.pi_of[net.index()] {
                debug_assert_eq!(self.pi_values[pi], Tern::X, "backtrace hit assigned PI");
                return (pi, value);
            }
            let Driver::Gate { kind, fanins } = self.circuit.driver(net) else {
                unreachable!("non-PI nets are gates");
            };
            let undetermined: Vec<&NetId> = fanins
                .iter()
                .filter(|f| !self.values[f.index()].good.is_determined())
                .collect();
            debug_assert!(
                !undetermined.is_empty(),
                "backtrace reached a determined gate"
            );
            let out_after_inv = if kind.is_inverting() { !value } else { value };
            let (next, next_value) = match kind {
                GateKind::Not | GateKind::Buf => (*undetermined[0], out_after_inv),
                GateKind::And | GateKind::Nand => {
                    if out_after_inv {
                        // Need every input high: pick the hardest.
                        let n = self.pick(&undetermined, true, false);
                        (n, true)
                    } else {
                        // One low input suffices: pick the easiest.
                        let n = self.pick(&undetermined, false, true);
                        (n, false)
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    if out_after_inv {
                        let n = self.pick(&undetermined, true, true);
                        (n, true)
                    } else {
                        let n = self.pick(&undetermined, false, false);
                        (n, false)
                    }
                }
                GateKind::Xor | GateKind::Xnor => (*undetermined[0], out_after_inv),
            };
            net = next;
            value = next_value;
        }
    }

    /// Chooses among undetermined fanins by SCOAP controllability of the
    /// needed `value`: cheapest when `easiest`, costliest otherwise.
    fn pick(&self, candidates: &[&NetId], value: bool, easiest: bool) -> NetId {
        let cost = |n: &NetId| {
            if value {
                self.scoap.cc1(*n)
            } else {
                self.scoap.cc0(*n)
            }
        };
        let chosen = if easiest {
            candidates.iter().min_by_key(|n| cost(n))
        } else {
            candidates.iter().max_by_key(|n| cost(n))
        };
        **chosen.expect("candidates are non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::DiffProp;
    use dp_faults::{checkpoint_faults, Fault};
    use dp_netlist::generators::{alu74181, c17, c95, full_adder};
    use dp_sim::detects;

    const LIMIT: usize = 100_000;

    fn cross_validate(circuit: &Circuit) {
        let mut dp = DiffProp::new(circuit);
        for f in checkpoint_faults(circuit) {
            let exact = dp.analyze(&Fault::from(f));
            match generate_test(circuit, &f, LIMIT) {
                PodemResult::Test(v) => {
                    assert!(exact.is_detectable(), "{f}: PODEM found a phantom test");
                    assert!(
                        detects(circuit, &Fault::from(f), &v),
                        "{f}: PODEM vector fails in simulation"
                    );
                }
                PodemResult::Untestable => {
                    assert!(
                        !exact.is_detectable(),
                        "{f}: PODEM claims untestable but detectability = {}",
                        exact.detectability
                    );
                }
                PodemResult::Aborted => panic!("{f}: aborted on a small circuit"),
            }
        }
    }

    #[test]
    fn agrees_with_dp_on_c17() {
        cross_validate(&c17());
    }

    #[test]
    fn agrees_with_dp_on_full_adder() {
        cross_validate(&full_adder());
    }

    #[test]
    fn agrees_with_dp_on_c95() {
        cross_validate(&c95());
    }

    #[test]
    fn agrees_with_dp_on_alu74181() {
        cross_validate(&alu74181());
    }

    #[test]
    fn proves_redundancy() {
        use dp_netlist::{CircuitBuilder, GateKind};
        // o = x ∨ (x ∧ y): the AND output s-a-0 is redundant.
        let mut b = CircuitBuilder::new("red");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.gate("a", GateKind::And, &[x, y]).unwrap();
        let o = b.gate("o", GateKind::Or, &[x, a]).unwrap();
        b.output(o);
        let c = b.finish().unwrap();
        let fault = StuckAtFault {
            site: dp_faults::FaultSite::Net(a),
            value: false,
        };
        assert_eq!(generate_test(&c, &fault, LIMIT), PodemResult::Untestable);
    }

    #[test]
    fn branch_faults_are_supported() {
        let c = c17();
        let mut dp = DiffProp::new(&c);
        for f in checkpoint_faults(&c)
            .into_iter()
            .filter(|f| matches!(f.site, FaultSite::Branch(_)))
        {
            let exact = dp.analyze(&Fault::from(f));
            match generate_test(&c, &f, LIMIT) {
                PodemResult::Test(v) => {
                    assert!(detects(&c, &Fault::from(f), &v), "{f}");
                }
                PodemResult::Untestable => assert!(!exact.is_detectable(), "{f}"),
                PodemResult::Aborted => panic!("{f}: aborted"),
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let c = c95();
        let f = checkpoint_faults(&c)[0];
        let (result, stats) = generate_test_with_stats(&c, &f, LIMIT);
        assert!(matches!(result, PodemResult::Test(_)));
        assert!(stats.decisions > 0);
        assert!(stats.implications > 0);
    }

    #[test]
    fn abort_respects_limit() {
        // Force an abort with limit 0 on a fault needing at least one
        // backtrack... a limit of 0 means the first backtrack aborts; an
        // easy fault may still succeed, so probe several.
        let c = alu74181();
        let mut aborted_or_done = 0;
        for f in checkpoint_faults(&c).into_iter().take(20) {
            match generate_test(&c, &f, 0) {
                PodemResult::Aborted | PodemResult::Test(_) | PodemResult::Untestable => {
                    aborted_or_done += 1
                }
            }
        }
        assert_eq!(aborted_or_done, 20); // terminates promptly either way
    }
}
