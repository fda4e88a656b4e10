//! One implementation per paper artifact: Figures 1–8, the §4.1
//! observation, the extensions and the extended-model scenario matrix.
//!
//! A [`Lab`] holds the experiment configuration, a circuit suite and a
//! cache of fault records: each (circuit, fault model) pair is swept once,
//! on first use, and every driver that needs it reads the cached records.
//! Each driver returns plain printable data. `diffprop figures` renders
//! them (its paper-scale output is recorded in `EXPERIMENTS.md`, its
//! smoke-scale output is pinned in `tests/golden/figures_smoke.txt`) and
//! the paper-claims tests assert on them.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dp_core::{sweep_universe, SweepConfig, SweepResult};
use dp_faults::BridgeKind;
use dp_netlist::Circuit;
use dp_telemetry::SweepReport;

use crate::correlation::{scoap_correlation, ScoapCorrelation};
use crate::coverage::{double_fault_coverage, expected_random_coverage, DoubleFaultCoverage};
use crate::histogram::Histogram;
use crate::records::{
    bridging_universe, fault_model_universe, records_from_summaries, stuck_at_universe, FaultRecord,
};
use crate::topology::{
    detectability_vs_pi_distance, detectability_vs_po_distance, pos_fed_vs_observed, DistanceBucket,
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

/// Called after every sweep a [`Lab`] runs, with the circuit name, the
/// fault-model name, the sweep and its wall time.
pub type SweepHook = fn(&str, &str, &SweepResult, Duration);

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

/// One (circuit, fault model) row of the extended-model scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRow {
    /// Faults swept.
    pub faults: usize,
    /// Faults with non-zero detectability.
    pub detectable: usize,
    /// Faults carrying an oscillation residual (feedback bridges).
    pub oscillating: usize,
    /// Mean detectability over all swept faults.
    pub mean_detectability: f64,
}

/// The experiment configuration, a circuit suite, and the fault records
/// and telemetry reports of every sweep run so far.
pub struct Lab {
    config: ExperimentConfig,
    suite: Vec<Circuit>,
    /// Records per (circuit, bridge kind); `None` is the stuck-at set.
    records: HashMap<(String, Option<BridgeKind>), Vec<FaultRecord>>,
    /// One schema-versioned report per sweep, in sweep order.
    reports: Vec<SweepReport>,
    hook: Option<SweepHook>,
}

impl Lab {
    /// A lab over `suite` with nothing swept yet.
    pub fn new(config: ExperimentConfig, suite: Vec<Circuit>) -> Self {
        Lab {
            config,
            suite,
            records: HashMap::new(),
            reports: Vec::new(),
            hook: None,
        }
    }

    /// Calls `hook` after every sweep (`diffprop figures`' progress and
    /// per-shard counter lines).
    pub fn with_sweep_hook(self, hook: SweepHook) -> Self {
        Lab {
            hook: Some(hook),
            ..self
        }
    }

    /// The telemetry reports of every sweep run, in sweep order.
    pub fn into_reports(self) -> Vec<SweepReport> {
        self.reports
    }

    /// # Panics
    ///
    /// Panics when the suite has no circuit called `name`.
    fn circuit(&self, name: &str) -> &Circuit {
        self.suite
            .iter()
            .find(|c| c.name() == name)
            .unwrap_or_else(|| panic!("circuit {name} is not in the lab's suite"))
    }

    fn names(&self) -> Vec<String> {
        self.suite.iter().map(|c| c.name().to_string()).collect()
    }

    fn sweep(&mut self, name: &str, model: &str, faults: &[dp_faults::Fault]) -> SweepResult {
        let t = Instant::now();
        let sweep = sweep_universe(self.circuit(name), faults, &self.config.sweep);
        if let Some(hook) = self.hook {
            hook(name, model, &sweep, t.elapsed());
        }
        self.reports
            .push(dp_core::sweep_report(name, model, &sweep));
        sweep
    }

    /// The circuit and its records for one fault set, swept on first use:
    /// the collapsed checkpoint stuck-at set capped at `sa_cap` (`kind`
    /// `None`), or the sampled NFBF set of a bridge kind.
    fn records(&mut self, name: &str, kind: Option<BridgeKind>) -> (&Circuit, &[FaultRecord]) {
        let key = (name.to_string(), kind);
        if !self.records.contains_key(&key) {
            let c = self.circuit(name);
            let (faults, model) = match kind {
                None => {
                    let mut faults = stuck_at_universe(c, true);
                    faults.truncate(self.config.sa_cap);
                    (faults, "stuck-at")
                }
                Some(kind) => (
                    bridging_universe(c, kind, Some(self.config.bf_sample), self.config.seed),
                    match kind {
                        BridgeKind::And => "bridging-and",
                        BridgeKind::Or => "bridging-or",
                    },
                ),
            };
            let sweep = self.sweep(name, model, &faults);
            let records = records_from_summaries(self.circuit(name), &faults, &sweep.summaries);
            self.records.insert(key.clone(), records);
        }
        (self.circuit(name), &self.records[&key])
    }

    /// The stuck-at records of circuit `name` (collapsed checkpoints).
    pub fn sa_records(&mut self, name: &str) -> &[FaultRecord] {
        self.records(name, None).1
    }

    /// The bridging records of circuit `name` for one bridge kind.
    pub fn bf_records(&mut self, name: &str, kind: BridgeKind) -> &[FaultRecord] {
        self.records(name, Some(kind)).1
    }

    /// AND and OR bridging records merged, as the paper found no material
    /// difference between them.
    fn bf_merged(&mut self, name: &str) -> Vec<FaultRecord> {
        let mut records = self.bf_records(name, BridgeKind::And).to_vec();
        records.extend_from_slice(self.bf_records(name, BridgeKind::Or));
        records
    }

    /// **Figure 1** — stuck-at detection-probability histogram of a circuit.
    pub fn fig1_sa_histogram(&mut self, name: &str) -> Histogram {
        let bins = self.config.bins;
        Histogram::from_values(bins, self.sa_records(name).iter().map(|r| r.detectability))
    }

    /// **Figure 2** — stuck-at mean-detectability trend across the suite.
    pub fn fig2_sa_trend(&mut self) -> Vec<TrendPoint> {
        self.names()
            .iter()
            .map(|name| {
                let (c, records) = self.records(name, None);
                trend_point(c, records)
            })
            .collect()
    }

    /// **Figure 3** — stuck-at detectability versus maximum levels to PO (the
    /// bathtub curve), plus the PI-distance companion from §4.1.
    pub fn fig3_sa_distance(&mut self, name: &str) -> (Vec<DistanceBucket>, Vec<DistanceBucket>) {
        let records = self.sa_records(name);
        (
            detectability_vs_po_distance(records),
            detectability_vs_pi_distance(records),
        )
    }

    /// **Figure 4** — stuck-at adherence histogram of a circuit.
    pub fn fig4_adherence_histogram(&mut self, name: &str) -> Histogram {
        let bins = self.config.bins;
        Histogram::from_values(
            bins,
            self.sa_records(name).iter().filter_map(|r| r.adherence),
        )
    }

    /// **Figure 5** — proportions of NFBFs exhibiting stuck-at behaviour, one
    /// row per suite circuit.
    pub fn fig5_stuck_behaviour(&mut self) -> Vec<StuckBehaviourRow> {
        let prop = |rs: &[FaultRecord]| {
            rs.iter().filter(|r| r.site_function_constant).count() as f64 / rs.len().max(1) as f64
        };
        self.names()
            .into_iter()
            .map(|name| {
                let and = self.bf_records(&name, BridgeKind::And);
                let (and_proportion, and_faults) = (prop(and), and.len());
                let or = self.bf_records(&name, BridgeKind::Or);
                let (or_proportion, or_faults) = (prop(or), or.len());
                StuckBehaviourRow {
                    name,
                    and_proportion,
                    or_proportion,
                    and_faults,
                    or_faults,
                }
            })
            .collect()
    }

    /// **Figure 6** — bridging-fault detection-probability histograms (AND and
    /// OR sets) for one circuit.
    pub fn fig6_bf_histograms(&mut self, name: &str) -> (Histogram, Histogram) {
        let bins = self.config.bins;
        let mut histogram = |kind| {
            Histogram::from_values(
                bins,
                self.bf_records(name, kind).iter().map(|r| r.detectability),
            )
        };
        (histogram(BridgeKind::And), histogram(BridgeKind::Or))
    }

    /// **Figure 7** — bridging-fault mean-detectability trend across the
    /// suite, AND and OR sets merged.
    pub fn fig7_bf_trend(&mut self) -> Vec<TrendPoint> {
        self.names()
            .iter()
            .map(|name| {
                let records = self.bf_merged(name);
                trend_point(self.circuit(name), &records)
            })
            .collect()
    }

    /// **Figure 8** — bridging-fault detectability versus maximum levels to PO.
    pub fn fig8_bf_distance(&mut self, name: &str) -> Vec<DistanceBucket> {
        detectability_vs_po_distance(&self.bf_merged(name))
    }

    /// The §4.1 observation: per suite circuit, the `(equal, detectable)`
    /// counts of stuck-at faults whose fed-PO and observable-PO counts
    /// coincide.
    pub fn obs_pos_fed_vs_observed(&mut self) -> Vec<(String, usize, usize)> {
        self.names()
            .into_iter()
            .map(|name| {
                let (equal, detectable) = pos_fed_vs_observed(self.sa_records(&name));
                (name, equal, detectable)
            })
            .collect()
    }

    /// Extension: Spearman correlations between a circuit's exact stuck-at
    /// detectabilities and its SCOAP estimates.
    pub fn ext_scoap_correlation(&mut self, name: &str) -> ScoapCorrelation {
        let (c, records) = self.records(name, None);
        scoap_correlation(c, records)
    }

    /// Extension: expected stuck-at coverage of random tests of each length.
    pub fn ext_random_coverage(&mut self, name: &str, lengths: &[usize]) -> Vec<(usize, f64)> {
        expected_random_coverage(self.sa_records(name), lengths)
    }

    /// Extension: coverage of `samples` random double stuck-at faults by a
    /// complete single-fault test set.
    pub fn ext_double_fault_coverage(&self, name: &str, samples: usize) -> DoubleFaultCoverage {
        double_fault_coverage(self.circuit(name), samples, self.config.seed)
    }

    /// The scenario matrix: sweeps one extended fault model (a
    /// [`fault_model_universe`] name, sampled at `bf_sample`) over a
    /// circuit. Not cached: each call sweeps.
    pub fn model_row(&mut self, name: &str, model: &str) -> Result<ModelRow, String> {
        let ExperimentConfig {
            bf_sample, seed, ..
        } = self.config;
        let faults = fault_model_universe(self.circuit(name), model, Some(bf_sample), seed)?;
        let summaries = self.sweep(name, model, &faults).summaries;
        Ok(ModelRow {
            faults: summaries.len(),
            detectable: summaries.iter().filter(|s| s.is_detectable()).count(),
            oscillating: summaries
                .iter()
                .filter(|s| s.outcome.is_oscillating())
                .count(),
            mean_detectability: summaries.iter().map(|s| s.detectability).sum::<f64>()
                / summaries.len().max(1) as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_netlist::generators::{c17, c95, full_adder};

    fn lab(suite: Vec<Circuit>) -> Lab {
        Lab::new(ExperimentConfig::smoke(), suite)
    }

    #[test]
    fn fig1_histogram_is_normalised() {
        let h = lab(vec![c95()]).fig1_sa_histogram("c95");
        assert!(h.total() > 0);
        let sum: f64 = h.proportions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig2_trend_has_one_point_per_circuit() {
        let points = lab(vec![c17(), full_adder()]).fig2_sa_trend();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].name, "c17");
    }

    #[test]
    fn fig3_returns_both_curves() {
        let (po, pi) = lab(vec![c95()]).fig3_sa_distance("c95");
        assert!(!po.is_empty());
        assert!(!pi.is_empty());
    }

    #[test]
    fn fig4_adherence_spikes_at_one() {
        // The paper: sharp rise at adherence = 1.0 (PO faults and more).
        let h = lab(vec![c95()]).fig4_adherence_histogram("c95");
        let props = h.proportions();
        assert!(props[h.num_bins() - 1] > 0.0, "no mass at adherence 1.0");
    }

    #[test]
    fn fig5_proportions_in_range() {
        let rows = lab(vec![c17(), full_adder()]).fig5_stuck_behaviour();
        for row in rows {
            assert!((0.0..=1.0).contains(&row.and_proportion));
            assert!((0.0..=1.0).contains(&row.or_proportion));
            assert!(row.and_faults > 0);
        }
    }

    #[test]
    fn fig6_histograms_for_both_kinds() {
        let (and_h, or_h) = lab(vec![c17()]).fig6_bf_histograms("c17");
        assert!(and_h.total() > 0);
        assert!(or_h.total() > 0);
    }

    #[test]
    fn fig7_merges_kinds() {
        let points = lab(vec![c17()]).fig7_bf_trend();
        assert_eq!(points.len(), 1);
        assert!(points[0].total_faults > 0);
    }

    #[test]
    fn fig8_curve_nonempty() {
        let curve = lab(vec![c17()]).fig8_bf_distance("c17");
        assert!(!curve.is_empty());
    }

    #[test]
    fn observation_counts_are_consistent() {
        let rows = lab(vec![c17()]).obs_pos_fed_vs_observed();
        assert_eq!(rows.len(), 1);
        let (_, equal, total) = rows[0];
        assert!(equal <= total);
        assert!(total > 0);
    }

    #[test]
    fn each_fault_set_is_swept_once_and_reported_in_order() {
        let mut lab = lab(vec![c17()]);
        lab.fig1_sa_histogram("c17");
        lab.fig3_sa_distance("c17");
        lab.fig6_bf_histograms("c17");
        lab.fig8_bf_distance("c17");
        let models: Vec<String> = lab
            .into_reports()
            .iter()
            .map(|r| r.fault_model.clone())
            .collect();
        assert_eq!(models, ["stuck-at", "bridging-and", "bridging-or"]);
    }

    #[test]
    fn model_rows_sweep_every_call_and_reject_unknown_models() {
        let mut lab = lab(vec![c17()]);
        let row = lab.model_row("c17", "fbridge-and").unwrap();
        assert!(row.faults > 0);
        assert!(row.detectable <= row.faults);
        assert!(row.oscillating <= row.faults);
        assert_eq!(lab.model_row("c17", "fbridge-and"), Ok(row));
        assert!(lab.model_row("c17", "nonsense").is_err());
        assert_eq!(lab.into_reports().len(), 2);
    }
}
