//! One driver per paper artifact (Figures 1–8 and the §4.1 observation).
//!
//! Each driver returns plain printable data; the `figures` binary prints the
//! full set (recorded in `EXPERIMENTS.md`) and the Criterion harness in
//! `crates/bench` times each one.

use dp_core::{sweep_universe, SweepConfig};
use dp_faults::BridgeKind;
use dp_netlist::Circuit;

use crate::histogram::Histogram;
use crate::records::{
    bridging_universe, records_from_sweep, stuck_at_universe, FaultRecord,
};
use crate::topology::{
    detectability_vs_pi_distance, detectability_vs_po_distance, pos_fed_vs_observed,
    DistanceBucket,
};
use crate::trends::{trend_point, TrendPoint};

/// Workload knobs shared by all figure drivers, plus the sweep they run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Histogram bin count (the paper uses fine-grained profiles; 20 bins
    /// reads well in text).
    pub bins: usize,
    /// Max bridging faults per (circuit, kind); larger NFBF sets are
    /// distance-weighted sampled (paper: ≈1000).
    pub bf_sample: usize,
    /// Max stuck-at faults per circuit (checkpoint sets are small enough to
    /// run whole; this caps pathological cases).
    pub sa_cap: usize,
    /// Sampling seed.
    pub seed: u64,
    /// How the fault sweeps execute: threads, budget, fallback samples,
    /// collapsing, telemetry and variable order. Every setting other than
    /// a finite budget prints byte-identical figure series (see
    /// `dp_core::parallel`); with a budget, over-budget faults carry sampled
    /// estimates flagged by `FaultRecord::outcome`.
    pub sweep: SweepConfig,
}

impl Default for ExperimentConfig {
    /// The paper-scale configuration.
    fn default() -> Self {
        ExperimentConfig {
            bins: 20,
            bf_sample: 1000,
            sa_cap: usize::MAX,
            seed: 1990,
            sweep: SweepConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// A workload small enough for unit tests and smoke runs.
    pub fn smoke() -> Self {
        ExperimentConfig {
            bins: 10,
            bf_sample: 40,
            sa_cap: 60,
            ..Default::default()
        }
    }
}

/// Stuck-at records for one circuit under a config (collapsed checkpoints).
pub fn stuck_at_records(circuit: &Circuit, config: &ExperimentConfig) -> Vec<FaultRecord> {
    let mut faults = stuck_at_universe(circuit, true);
    faults.truncate(config.sa_cap);
    let sweep = sweep_universe(circuit, &faults, &config.sweep);
    records_from_sweep(circuit, &faults, &sweep)
}

/// Bridging records for one circuit and kind under a config.
pub fn bridging_records(
    circuit: &Circuit,
    kind: BridgeKind,
    config: &ExperimentConfig,
) -> Vec<FaultRecord> {
    let faults = bridging_universe(circuit, kind, Some(config.bf_sample), config.seed);
    let sweep = sweep_universe(circuit, &faults, &config.sweep);
    records_from_sweep(circuit, &faults, &sweep)
}

/// **Figure 1** — stuck-at detection-probability histogram of a circuit.
pub fn fig1_sa_histogram(circuit: &Circuit, config: &ExperimentConfig) -> Histogram {
    let records = stuck_at_records(circuit, config);
    Histogram::from_values(config.bins, records.iter().map(|r| r.detectability))
}

/// **Figure 2** — stuck-at mean-detectability trend across a circuit set.
pub fn fig2_sa_trend(suite: &[Circuit], config: &ExperimentConfig) -> Vec<TrendPoint> {
    suite
        .iter()
        .map(|c| trend_point(c, &stuck_at_records(c, config)))
        .collect()
}

/// **Figure 3** — stuck-at detectability versus maximum levels to PO (the
/// bathtub curve), plus the PI-distance companion from §4.1.
pub fn fig3_sa_distance(
    circuit: &Circuit,
    config: &ExperimentConfig,
) -> (Vec<DistanceBucket>, Vec<DistanceBucket>) {
    let records = stuck_at_records(circuit, config);
    (
        detectability_vs_po_distance(&records),
        detectability_vs_pi_distance(&records),
    )
}

/// **Figure 4** — stuck-at adherence histogram of a circuit.
pub fn fig4_adherence_histogram(circuit: &Circuit, config: &ExperimentConfig) -> Histogram {
    let records = stuck_at_records(circuit, config);
    Histogram::from_values(
        config.bins,
        records.iter().filter_map(|r| r.adherence),
    )
}

/// One circuit's row in **Figure 5**: the proportions of AND and OR NFBFs
/// whose faulty site function is constant ("stuck-at behaviour").
#[derive(Debug, Clone, PartialEq)]
pub struct StuckBehaviourRow {
    /// Circuit name.
    pub name: String,
    /// Proportion of AND NFBFs with constant site function.
    pub and_proportion: f64,
    /// Proportion of OR NFBFs with constant site function.
    pub or_proportion: f64,
    /// Sample sizes underlying the two proportions.
    pub and_faults: usize,
    /// Sample size for the OR set.
    pub or_faults: usize,
}

/// **Figure 5** — proportions of NFBFs exhibiting stuck-at behaviour.
pub fn fig5_stuck_behaviour(suite: &[Circuit], config: &ExperimentConfig) -> Vec<StuckBehaviourRow> {
    suite
        .iter()
        .map(|c| {
            let and_records = bridging_records(c, BridgeKind::And, config);
            let or_records = bridging_records(c, BridgeKind::Or, config);
            let prop = |rs: &[FaultRecord]| {
                if rs.is_empty() {
                    0.0
                } else {
                    rs.iter().filter(|r| r.site_function_constant).count() as f64 / rs.len() as f64
                }
            };
            StuckBehaviourRow {
                name: c.name().to_string(),
                and_proportion: prop(&and_records),
                or_proportion: prop(&or_records),
                and_faults: and_records.len(),
                or_faults: or_records.len(),
            }
        })
        .collect()
}

/// **Figure 6** — bridging-fault detection-probability histograms (AND and
/// OR sets) for one circuit.
pub fn fig6_bf_histograms(
    circuit: &Circuit,
    config: &ExperimentConfig,
) -> (Histogram, Histogram) {
    let mk = |kind| {
        let records = bridging_records(circuit, kind, config);
        Histogram::from_values(config.bins, records.iter().map(|r| r.detectability))
    };
    (mk(BridgeKind::And), mk(BridgeKind::Or))
}

/// **Figure 7** — bridging-fault mean-detectability trend (AND and OR sets
/// merged, as the paper found no material difference between them).
pub fn fig7_bf_trend(suite: &[Circuit], config: &ExperimentConfig) -> Vec<TrendPoint> {
    suite
        .iter()
        .map(|c| {
            let mut records = bridging_records(c, BridgeKind::And, config);
            records.extend(bridging_records(c, BridgeKind::Or, config));
            trend_point(c, &records)
        })
        .collect()
}

/// **Figure 8** — bridging-fault detectability versus maximum levels to PO.
pub fn fig8_bf_distance(circuit: &Circuit, config: &ExperimentConfig) -> Vec<DistanceBucket> {
    let mut records = bridging_records(circuit, BridgeKind::And, config);
    records.extend(bridging_records(circuit, BridgeKind::Or, config));
    detectability_vs_po_distance(&records)
}

/// The §4.1 observation: `(equal, detectable)` counts of faults whose
/// fed-PO and observable-PO counts coincide.
pub fn obs_pos_fed_vs_observed(circuit: &Circuit, config: &ExperimentConfig) -> (usize, usize) {
    let records = stuck_at_records(circuit, config);
    pos_fed_vs_observed(&records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_netlist::generators::{c17, c95, full_adder};

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::smoke()
    }

    #[test]
    fn fig1_histogram_is_normalised() {
        let h = fig1_sa_histogram(&c95(), &cfg());
        assert!(h.total() > 0);
        let sum: f64 = h.proportions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig2_trend_has_one_point_per_circuit() {
        let suite = vec![c17(), full_adder()];
        let points = fig2_sa_trend(&suite, &cfg());
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].name, "c17");
    }

    #[test]
    fn fig3_returns_both_curves() {
        let (po, pi) = fig3_sa_distance(&c95(), &cfg());
        assert!(!po.is_empty());
        assert!(!pi.is_empty());
    }

    #[test]
    fn fig4_adherence_spikes_at_one() {
        // The paper: sharp rise at adherence = 1.0 (PO faults and more).
        let h = fig4_adherence_histogram(&c95(), &cfg());
        let props = h.proportions();
        assert!(props[h.num_bins() - 1] > 0.0, "no mass at adherence 1.0");
    }

    #[test]
    fn fig5_proportions_in_range() {
        let rows = fig5_stuck_behaviour(&[c17(), full_adder()], &cfg());
        for row in rows {
            assert!((0.0..=1.0).contains(&row.and_proportion));
            assert!((0.0..=1.0).contains(&row.or_proportion));
            assert!(row.and_faults > 0);
        }
    }

    #[test]
    fn fig6_histograms_for_both_kinds() {
        let (and_h, or_h) = fig6_bf_histograms(&c17(), &cfg());
        assert!(and_h.total() > 0);
        assert!(or_h.total() > 0);
    }

    #[test]
    fn fig7_merges_kinds() {
        let points = fig7_bf_trend(&[c17()], &cfg());
        assert_eq!(points.len(), 1);
        assert!(points[0].total_faults > 0);
    }

    #[test]
    fn fig8_curve_nonempty() {
        let curve = fig8_bf_distance(&c17(), &cfg());
        assert!(!curve.is_empty());
    }

    #[test]
    fn observation_counts_are_consistent() {
        let (equal, total) = obs_pos_fed_vs_observed(&c17(), &cfg());
        assert!(equal <= total);
        assert!(total > 0);
    }
}
