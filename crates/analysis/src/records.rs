//! Batch fault analysis: one scalar record per fault.

use dp_core::{sweep_universe, FaultOutcome, SweepConfig};
use dp_faults::{
    checkpoint_faults, collapse_checkpoint_faults, enumerate_bridges, pair_multis, sample_nfbfs,
    sampled_multis, BridgeKind, BridgeTopology, Fault, FaultSite, SampleConfig,
};
use dp_netlist::{Circuit, NetId};

/// Everything the paper's figures need to know about one analysed fault.
///
/// Records carry only scalars (no BDD handles), so they outlive the engine
/// and its garbage collections.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// The fault.
    pub fault: Fault,
    /// Exact detection probability in `[0, 1]`.
    pub detectability: f64,
    /// The paper's adherence `δ/u` (stuck-at faults with non-zero bound).
    pub adherence: Option<f64>,
    /// Number of POs at which the fault is observable for some vector.
    pub observable_outputs: usize,
    /// Number of POs structurally reachable from the fault site(s).
    pub reachable_outputs: usize,
    /// Whether the faulty site function is constant — for bridging faults,
    /// the paper's "behaves as a stuck-at" criterion (Figure 5).
    pub site_function_constant: bool,
    /// Maximum gate levels from the site to any PO (Figures 3 and 8); for a
    /// bridging fault, the larger of the two sites.
    pub max_levels_to_po: u32,
    /// Level of the site from the PIs (the X coordinate; PI-distance
    /// scatter, §4.1); for a bridging fault, the larger of the two sites.
    pub level_from_pi: u32,
    /// Whether the detectability is exact or a budget-capped sampled
    /// estimate (see [`dp_core::FaultOutcome`]). Always `Exact` without a
    /// configured BDD work budget.
    pub outcome: FaultOutcome,
}

impl FaultRecord {
    /// `true` when at least one vector detects the fault.
    pub fn is_detectable(&self) -> bool {
        self.detectability > 0.0
    }
}

/// Runs Difference Propagation over `faults` and returns one record each.
///
/// # Examples
///
/// ```
/// use dp_analysis::{analyze_faults, bridging_universe};
/// use dp_faults::BridgeKind;
/// use dp_netlist::generators::full_adder;
///
/// let c = full_adder();
/// let faults = bridging_universe(&c, BridgeKind::And, None, 0);
/// let records = analyze_faults(&c, &faults);
/// assert!(records.iter().any(|r| r.is_detectable()));
/// ```
pub fn analyze_faults(circuit: &Circuit, faults: &[Fault]) -> Vec<FaultRecord> {
    let sweep = sweep_universe(circuit, faults, &SweepConfig::default());
    records_from_summaries(circuit, faults, &sweep.summaries)
}

/// Joins a sweep's per-fault scalars with the circuit's topology facts.
///
/// The topology fields are structural, so the records are bit-identical
/// whenever the summaries are: across every [`dp_core::Parallelism`]
/// setting of [`dp_core::sweep_universe`], and for summaries rebuilt from a
/// `dp-serve` record stream (the `diffprop analyze --connect` client).
pub fn records_from_summaries(
    circuit: &Circuit,
    faults: &[Fault],
    summaries: &[dp_core::FaultSummary],
) -> Vec<FaultRecord> {
    assert_eq!(
        faults.len(),
        summaries.len(),
        "summaries do not cover the fault list"
    );
    let levels = circuit.levels_from_inputs();
    let to_po = circuit.max_levels_to_output();
    let mut records = Vec::with_capacity(faults.len());
    for (fault, summary) in faults.iter().zip(summaries) {
        debug_assert_eq!(*fault, summary.fault);
        // A branch fault only influences the circuit through its sink gate,
        // so its fed POs and PO distance go through the sink; its level from
        // the inputs is the stem's.
        let flow_nets: Vec<NetId> = match fault {
            Fault::StuckAt(f) => vec![f.site.flow_net()],
            Fault::Bridging(b) => vec![b.a, b.b],
            Fault::MultiStuckAt(m) => m.components().iter().map(|c| c.site.flow_net()).collect(),
        };
        let reachable: std::collections::HashSet<_> = flow_nets
            .iter()
            .flat_map(|&s| circuit.reachable_outputs(s))
            .collect();
        let site_distance = |n: NetId| to_po[n.index()];
        let max_levels_to_po = match fault {
            Fault::StuckAt(f) => {
                let d = site_distance(f.site.flow_net());
                // The branch itself sits one level above its sink; an
                // unreachable sink (`u32::MAX`) stays unreachable.
                match f.site {
                    FaultSite::Net(_) => d,
                    FaultSite::Branch(_) => d.saturating_add(1),
                }
            }
            Fault::Bridging(_) | Fault::MultiStuckAt(_) => flow_nets
                .iter()
                .map(|&s| site_distance(s))
                .filter(|&d| d != u32::MAX)
                .max()
                .unwrap_or(u32::MAX),
        };
        let level_from_pi = fault
            .sites()
            .iter()
            .map(|s| levels[s.index()])
            .max()
            .unwrap_or(0);
        records.push(FaultRecord {
            fault: fault.clone(),
            detectability: summary.detectability,
            adherence: summary.adherence,
            observable_outputs: summary.num_observable(),
            reachable_outputs: reachable.len(),
            site_function_constant: summary.site_function_constant,
            max_levels_to_po,
            level_from_pi,
            outcome: summary.outcome,
        });
    }
    records
}

/// The paper's stuck-at fault universe for a circuit: checkpoint faults,
/// optionally collapsed by gate-input equivalence (§2.1).
pub fn stuck_at_universe(circuit: &Circuit, collapse: bool) -> Vec<Fault> {
    let faults = checkpoint_faults(circuit);
    let faults = if collapse {
        collapse_checkpoint_faults(circuit, &faults)
    } else {
        faults
    };
    faults.into_iter().map(Fault::from).collect()
}

/// The paper's NFBF universe for a circuit and bridge kind: all potentially
/// detectable NFBFs, or (when `sample` is `Some(n)` and the set is larger)
/// an exponential-distance-weighted random sample of `n` faults (§2.2).
pub fn bridging_universe(
    circuit: &Circuit,
    kind: BridgeKind,
    sample: Option<usize>,
    seed: u64,
) -> Vec<Fault> {
    bridge_universe(circuit, kind, BridgeTopology::NonFeedback, sample, seed)
}

/// The feedback-bridge universe for a circuit and bridge kind: every pair
/// with one net in the other's fanout cone, analysed via the engine's
/// ternary fixpoint propagation. `sample` applies the same
/// exponential-distance-weighted sampler as [`bridging_universe`].
pub fn feedback_bridging_universe(
    circuit: &Circuit,
    kind: BridgeKind,
    sample: Option<usize>,
    seed: u64,
) -> Vec<Fault> {
    bridge_universe(circuit, kind, BridgeTopology::Feedback, sample, seed)
}

/// One `(kind, topology)` cell of the bridge enumeration, sampled down to
/// `sample` faults when it is larger.
fn bridge_universe(
    circuit: &Circuit,
    kind: BridgeKind,
    topology: BridgeTopology,
    sample: Option<usize>,
    seed: u64,
) -> Vec<Fault> {
    let all = enumerate_bridges(circuit, kind, topology);
    let picked = match sample {
        Some(n) if n < all.len() => sample_nfbfs(
            circuit,
            &all,
            SampleConfig {
                count: n,
                seed,
                ..Default::default()
            },
        ),
        _ => all,
    };
    picked.into_iter().map(Fault::from).collect()
}

/// The multiple stuck-at universe for a circuit: every distinct-site pair
/// of checkpoint faults when `k == 2` and `sample` is `None`, or a seeded
/// deterministic sample of `sample` multiplicity-`k` faults otherwise.
///
/// # Panics
///
/// Panics when `k != 2` and no sample size is given — exhaustive
/// higher-multiplicity universes are combinatorially out of reach.
pub fn multi_universe(circuit: &Circuit, k: usize, sample: Option<usize>, seed: u64) -> Vec<Fault> {
    let multis = match sample {
        None if k == 2 => pair_multis(circuit),
        Some(n) => sampled_multis(circuit, k, n, seed),
        None => panic!("exhaustive multi universe only exists for pairs; give k={k} a sample size"),
    };
    multis.into_iter().map(Fault::from).collect()
}

/// Resolves a fault-model name to its universe — the single vocabulary the
/// `diffprop` CLI, the `dp-serve` protocol, and the experiment drivers
/// share:
///
/// | name | universe |
/// |---|---|
/// | `stuck` | collapsed checkpoint stuck-at faults |
/// | `nfbf-and` / `nfbf-or` | non-feedback bridging faults |
/// | `fbridge-and` / `fbridge-or` | feedback bridging faults (ternary fixpoint) |
/// | `multi` | all distinct-site checkpoint pairs |
///
/// `sample` caps the bridging universes by the exponential-distance sampler
/// and turns `multi` into a seeded pair sample; `stuck` ignores it (the
/// caller truncates if it wants fewer faults).
pub fn fault_model_universe(
    circuit: &Circuit,
    model: &str,
    sample: Option<usize>,
    seed: u64,
) -> Result<Vec<Fault>, String> {
    Ok(match model {
        "stuck" => stuck_at_universe(circuit, true),
        "nfbf-and" => bridging_universe(circuit, BridgeKind::And, sample, seed),
        "nfbf-or" => bridging_universe(circuit, BridgeKind::Or, sample, seed),
        "fbridge-and" => feedback_bridging_universe(circuit, BridgeKind::And, sample, seed),
        "fbridge-or" => feedback_bridging_universe(circuit, BridgeKind::Or, sample, seed),
        "multi" => multi_universe(circuit, 2, sample, seed),
        other => {
            return Err(format!(
                "unknown fault model `{other}` (expected stuck, nfbf-and, nfbf-or, \
                 fbridge-and, fbridge-or, or multi)"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_netlist::generators::{c17, full_adder};

    #[test]
    fn records_align_with_faults() {
        let c = c17();
        let faults = stuck_at_universe(&c, true);
        let records = analyze_faults(&c, &faults);
        assert_eq!(records.len(), faults.len());
        for (f, r) in faults.iter().zip(&records) {
            assert_eq!(*f, r.fault);
            assert!(r.detectability >= 0.0 && r.detectability <= 1.0);
            assert!(r.observable_outputs <= r.reachable_outputs);
        }
    }

    #[test]
    fn parallel_records_match_serial() {
        let c = full_adder();
        let mut faults = stuck_at_universe(&c, false);
        faults.extend(bridging_universe(&c, BridgeKind::And, None, 0));
        let serial = analyze_faults(&c, &faults);
        let config = SweepConfig {
            parallelism: dp_core::Parallelism::Threads(3),
            ..Default::default()
        };
        let sweep = sweep_universe(&c, &faults, &config);
        let threaded = records_from_summaries(&c, &faults, &sweep.summaries);
        assert_eq!(serial.len(), threaded.len());
        for (s, t) in serial.iter().zip(&threaded) {
            assert_eq!(s.fault, t.fault);
            assert_eq!(s.detectability.to_bits(), t.detectability.to_bits());
            assert_eq!(s.adherence.map(f64::to_bits), t.adherence.map(f64::to_bits));
            assert_eq!(s.observable_outputs, t.observable_outputs);
            assert_eq!(s.reachable_outputs, t.reachable_outputs);
            assert_eq!(s.site_function_constant, t.site_function_constant);
            assert_eq!(s.max_levels_to_po, t.max_levels_to_po);
            assert_eq!(s.level_from_pi, t.level_from_pi);
        }
    }

    #[test]
    fn default_records_are_exact_and_budgeted_records_are_flagged() {
        let c = c17();
        let faults = stuck_at_universe(&c, true);
        let records = analyze_faults(&c, &faults);
        assert!(records.iter().all(|r| r.outcome.is_exact()));

        use dp_core::{BudgetConfig, EngineConfig};
        let config = SweepConfig {
            engine: EngineConfig {
                budget: BudgetConfig::with_max_nodes(2),
                ..Default::default()
            },
            ..Default::default()
        };
        let sweep = sweep_universe(&c, &faults, &config);
        let bounded = records_from_summaries(&c, &faults, &sweep.summaries);
        assert_eq!(bounded.len(), faults.len());
        assert!(bounded.iter().all(|r| !r.outcome.is_exact()));
        assert!(bounded
            .iter()
            .all(|r| (0.0..=1.0).contains(&r.detectability)));
    }

    #[test]
    fn stuck_at_universe_collapse_shrinks() {
        let c = c17();
        assert!(stuck_at_universe(&c, true).len() < stuck_at_universe(&c, false).len());
    }

    #[test]
    fn bridging_universe_sampling_caps_size() {
        let c = c17();
        let all = bridging_universe(&c, BridgeKind::And, None, 0);
        let some = bridging_universe(&c, BridgeKind::And, Some(5), 0);
        assert!(all.len() > 5);
        assert_eq!(some.len(), 5);
    }

    #[test]
    fn stuck_at_records_have_adherence() {
        let c = full_adder();
        let records = analyze_faults(&c, &stuck_at_universe(&c, false));
        // Each PI has syndrome 0.5, so every checkpoint fault has a bound.
        assert!(records.iter().all(|r| r.adherence.is_some()));
        assert!(records.iter().all(|r| r.adherence.unwrap() <= 1.0 + 1e-12));
    }

    #[test]
    fn bridging_records_have_no_adherence() {
        let c = full_adder();
        let records = analyze_faults(&c, &bridging_universe(&c, BridgeKind::Or, None, 0));
        assert!(records.iter().all(|r| r.adherence.is_none()));
    }

    #[test]
    fn topology_fields_are_consistent() {
        let c = c17();
        let records = analyze_faults(&c, &stuck_at_universe(&c, false));
        let max_level = *c.levels_from_inputs().iter().max().unwrap();
        for r in &records {
            assert!(r.level_from_pi <= max_level);
            assert!(r.max_levels_to_po <= max_level);
        }
    }
}
