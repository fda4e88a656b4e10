//! Cross-crate budget tests: a work-budgeted engine must be *fail-safe* —
//! every `try_analyze` call either returns exactly what the unbudgeted
//! engine returns, or reports `BudgetExceeded`. It must never return a
//! plausible-but-wrong answer, and a budget-capped sweep must degrade to
//! sampled estimates instead of panicking or aborting.

use diffprop::analysis::{fault_model_universe, stuck_at_universe};
use diffprop::core::{
    summary_line, sweep_universe, AnalysisError, BudgetConfig, DiffProp, EngineConfig, Parallelism,
    SweepConfig,
};
use diffprop::faults::{checkpoint_faults, Fault};
use diffprop::netlist::generators::{alu74181, c95, random_circuit, RandomCircuitConfig};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (any::<u64>(), (2usize..=5, 4usize..=18, 2usize..=4)).prop_map(
        |(seed, (inputs, gates, max_fanin))| {
            (
                seed,
                RandomCircuitConfig {
                    inputs,
                    gates,
                    max_fanin,
                },
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random circuits under random tiny budgets, `try_analyze` is
    /// all-or-nothing: `Ok` results are bit-identical to the unbudgeted
    /// engine's, and the only failure mode is `Err(BudgetExceeded)`.
    #[test]
    fn budgeted_analysis_is_exact_or_err(
        (seed, cfg) in config_strategy(),
        max_nodes in 1usize..160,
        max_op_steps in 1u64..2000,
    ) {
        let circuit = random_circuit(seed, cfg);
        let mut reference = DiffProp::new(&circuit);
        let budget = BudgetConfig {
            max_nodes: Some(max_nodes),
            max_op_steps: Some(max_op_steps),
        };
        let config = EngineConfig { budget, ..Default::default() };
        // The build itself may blow the budget; that is a legal outcome,
        // not a test failure.
        if let Ok(snapshot) = DiffProp::build_snapshot(&circuit, config) {
            let mut budgeted = DiffProp::from_snapshot(&circuit, &snapshot, config);
            for f in checkpoint_faults(&circuit).into_iter().take(12) {
                let fault = Fault::from(f);
                let exact = reference.analyze(&fault);
                match budgeted.try_analyze(&fault) {
                    Ok(got) => {
                        prop_assert_eq!(
                            got.detectability.to_bits(),
                            exact.detectability.to_bits(),
                            "{} on {}", fault, circuit.name()
                        );
                        prop_assert_eq!(got.test_count, exact.test_count);
                        prop_assert_eq!(&got.observable_outputs, &exact.observable_outputs);
                        prop_assert_eq!(got.site_function_constant, exact.site_function_constant);
                    }
                    // Stuck-at faults never take the fixpoint path.
                    Err(AnalysisError::FixpointDiverged { .. }) => {
                        prop_assert!(false, "stuck-at fault reported a fixpoint divergence");
                    }
                    Err(AnalysisError::BudgetExceeded(_)) => {
                        // Legal degradation — and it must not poison later
                        // calls: the infallible path stays exact afterwards.
                        let recovered = budgeted.analyze(&fault);
                        prop_assert_eq!(
                            recovered.detectability.to_bits(),
                            exact.detectability.to_bits()
                        );
                    }
                }
            }
        }
    }
}

/// A sweep over real benchmark circuits with an adversarially tiny node
/// budget completes without panicking, covers every fault, degrades a
/// non-zero number of them to sampled estimates, and keeps every
/// detectability in range.
#[test]
fn tiny_budget_sweep_degrades_instead_of_aborting() {
    for circuit in [c95(), alu74181()] {
        let faults = stuck_at_universe(&circuit, true);
        let config = SweepConfig {
            engine: EngineConfig {
                budget: BudgetConfig::with_max_nodes(16),
                ..Default::default()
            },
            parallelism: Parallelism::Threads(3),
            fallback_samples: 256,
            ..Default::default()
        };
        let sweep = sweep_universe(&circuit, &faults, &config);
        assert!(
            sweep.is_complete(),
            "no shard may fail on {}",
            circuit.name()
        );
        assert_eq!(sweep.summaries.len(), faults.len());
        assert!(
            sweep.num_bounded() > 0,
            "a 16-node budget must trip on {}",
            circuit.name()
        );
        for s in &sweep.summaries {
            assert!(
                (0.0..=1.0).contains(&s.detectability),
                "{} out of range on {}",
                s.fault,
                circuit.name()
            );
        }
    }
}

/// With an explicitly unlimited budget the fallback is never consulted:
/// whatever it is configured to, the sweep is the default exact sweep —
/// same scalars, every outcome `Exact`.
#[test]
fn unlimited_budget_sweep_matches_the_default_path() {
    let circuit = c95();
    let faults = stuck_at_universe(&circuit, true);
    let exact = sweep_universe(&circuit, &faults, &SweepConfig::default());
    let fallible = sweep_universe(
        &circuit,
        &faults,
        &SweepConfig {
            engine: EngineConfig {
                budget: BudgetConfig::UNLIMITED,
                ..Default::default()
            },
            fallback_samples: 64,
            ..Default::default()
        },
    );
    assert_eq!(exact.summaries.len(), fallible.summaries.len());
    for (a, b) in exact.summaries.iter().zip(&fallible.summaries) {
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.detectability.to_bits(), b.detectability.to_bits());
        assert_eq!(a.test_count, b.test_count);
        assert!(b.outcome.is_exact());
    }
}

/// Where the bounded-sweep golden lives, relative to the workspace root.
const BOUNDED_GOLDEN_PATH: &str = "tests/golden/bounded_summaries.tsv";

/// c95 sweeps under a 120-node budget, one per fault model (first 200
/// faults each), rendered as `model<TAB>summary_line` rows. The budget
/// trips on every fault, so each row is a simulator fallback and the file
/// pins the exact bits of `dp_sim::sampled_fault_estimate`: counts,
/// observability flags and site constancy.
fn bounded_golden_lines() -> Vec<String> {
    let circuit = c95();
    let config = SweepConfig {
        engine: EngineConfig {
            budget: BudgetConfig::with_max_nodes(120),
            ..Default::default()
        },
        fallback_samples: 256,
        ..Default::default()
    };
    let mut lines = Vec::new();
    for model in ["stuck", "multi", "nfbf-or", "fbridge-and"] {
        let mut faults = fault_model_universe(&circuit, model, None, 0).expect("known model");
        faults.truncate(200);
        let sweep = sweep_universe(&circuit, &faults, &config);
        assert!(sweep.is_complete(), "{model}: a shard failed");
        for (i, s) in sweep.summaries.iter().enumerate() {
            lines.push(format!("{model}\t{}", summary_line(i, s)));
        }
    }
    lines
}

/// The degraded path is deterministic down to the bit: the bounded sweeps
/// reproduce the committed golden file. Regenerate deliberately with
/// `DP_UPDATE_GOLDEN=1 cargo test -q --test budget bounded`.
#[test]
fn bounded_summaries_match_golden() {
    let lines = bounded_golden_lines();
    if std::env::var_os("DP_UPDATE_GOLDEN").is_some() {
        std::fs::write(BOUNDED_GOLDEN_PATH, lines.join("\n") + "\n").expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(BOUNDED_GOLDEN_PATH)
        .expect("golden file missing; run with DP_UPDATE_GOLDEN=1 to capture");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), lines.len(), "bounded universe size changed");
    assert!(
        golden.iter().any(|l| l.ends_with("bounded:256")),
        "the golden must pin some fallback estimates"
    );
    for (want, got) in golden.iter().zip(&lines) {
        assert_eq!(
            want, got,
            "bounded summary drifted from the committed golden file"
        );
    }
}
