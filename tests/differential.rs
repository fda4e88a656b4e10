//! Differential test layer: Difference Propagation vs brute-force truth.
//!
//! For c17, the full adder and c95, and for every fault model (checkpoint
//! stuck-at faults, AND/OR NFBFs, feedback bridges, and double stuck-at
//! faults), DP's exact `test_count` and per-output observability sets must
//! equal, fault by fault, a ground truth computed by exhaustive simulation
//! of every input vector. Acyclic models use the scalar binary simulator
//! (cross-checked here against the bit-parallel
//! `exhaustive_detectability`); feedback bridges use the packed *ternary*
//! simulator, whose per-vector Gauss-Seidel fixpoint is the independent
//! realisation of the same 0/1/X semantics the engine computes
//! symbolically. Agreement pins the whole DP pipeline — good functions,
//! Table-1 propagation, the ternary fixpoint, counting — to oracles that
//! share no code with it.

mod common;

use common::{
    assert_matches_golden, assert_matches_ternary_oracle, bridging_universe, current_golden_lines,
    feedback_universe, multi_universe, stuck_at_universe, GOLDEN_PATH,
};
use diffprop::core::{
    plan_batches, sweep_universe, DiffProp, EngineConfig, OrderStrategy, Parallelism, SweepConfig,
};
use diffprop::faults::{collapse_faults, Fault};
use diffprop::netlist::generators::{
    alu74181, c17, c432_surrogate, c499_surrogate, c95, full_adder,
};
use diffprop::netlist::{Circuit, Reachability};
use diffprop::sim::{detects, exhaustive_detectability, faulty_outputs};

/// Per-fault brute-force truth: exact detecting-vector count and the set of
/// outputs where the fault is ever visible.
struct GroundTruth {
    count: u128,
    observable: Vec<bool>,
}

/// Good outputs for every input vector, indexed by the vector's bit pattern.
fn good_output_table(circuit: &Circuit) -> Vec<Vec<bool>> {
    let n = circuit.num_inputs();
    (0..1u64 << n)
        .map(|bits| circuit.eval(&to_vector(bits, n)))
        .collect()
}

fn to_vector(bits: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| bits >> i & 1 == 1).collect()
}

fn ground_truth(circuit: &Circuit, fault: &Fault, good: &[Vec<bool>]) -> GroundTruth {
    let n = circuit.num_inputs();
    let mut count = 0u128;
    let mut observable = vec![false; circuit.num_outputs()];
    for bits in 0..1u64 << n {
        let bad = faulty_outputs(circuit, fault, &to_vector(bits, n));
        let mut any = false;
        for (k, flag) in observable.iter_mut().enumerate() {
            if good[bits as usize][k] != bad[k] {
                *flag = true;
                any = true;
            }
        }
        if any {
            count += 1;
        }
    }
    GroundTruth { count, observable }
}

/// Runs the sweep and checks every fault against the oracle.
fn check_universe(circuit: &Circuit, faults: &[Fault]) {
    assert!(!faults.is_empty(), "empty universe on {}", circuit.name());
    let n = circuit.num_inputs();
    let total = 1u128 << n;
    let good = good_output_table(circuit);
    let sweep = sweep_universe(circuit, faults, &SweepConfig::default());
    for (fault, summary) in faults.iter().zip(&sweep.summaries) {
        let truth = ground_truth(circuit, fault, &good);
        assert_eq!(
            summary.test_count,
            Some(truth.count),
            "test_count for {fault} on {}",
            circuit.name()
        );
        assert_eq!(
            summary.observable_outputs,
            truth.observable,
            "observable outputs for {fault} on {}",
            circuit.name()
        );
        // count / 2^n is exact in f64 for these sizes, so demand bit equality.
        assert_eq!(
            summary.detectability.to_bits(),
            (truth.count as f64 / total as f64).to_bits(),
            "detectability for {fault} on {}",
            circuit.name()
        );
        // The two independent simulators must also agree with each other.
        let (det, tot) = exhaustive_detectability(circuit, fault);
        assert_eq!(det as u128, truth.count, "simulators disagree on {fault}");
        assert_eq!(tot as u128, total);
        if matches!(fault, Fault::StuckAt(_)) {
            assert!(summary.site_function_constant, "{fault} site not constant");
        }
    }
}

// ---------------------------------------------------------------------------
// Golden summaries: the engine's output pinned bit-for-bit across refactors.
//
// `tests/golden/universe_summaries.tsv` was captured from the serial sweep
// before the complement-edge BDD refactor. The serialisation and universe
// enumeration live in `tests/common/mod.rs` (shared with the telemetry
// invariance layer). Regenerate deliberately with
// `DP_UPDATE_GOLDEN=1 cargo test -q --test differential golden`.
// ---------------------------------------------------------------------------

fn sweep_config(parallelism: Parallelism) -> SweepConfig {
    SweepConfig {
        parallelism,
        ..Default::default()
    }
}

#[test]
fn golden_universe_summaries_are_bit_identical() {
    let lines = current_golden_lines(&sweep_config(Parallelism::Serial));
    if std::env::var_os("DP_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("write golden file");
        return;
    }
    assert_matches_golden(&lines);
}

/// The same golden file, reproduced by the work-stealing sweep at four
/// workers: scheduling (which worker claims which chunk, in what
/// interleaving) must leave every byte of the output unchanged.
#[test]
fn golden_universe_summaries_are_bit_identical_at_four_threads() {
    assert_matches_golden(&current_golden_lines(&sweep_config(Parallelism::Threads(
        4,
    ))));
}

#[test]
fn c17_stuck_at_matches_exhaustive() {
    let c = c17();
    check_universe(&c, &stuck_at_universe(&c));
}

#[test]
fn c17_bridging_matches_exhaustive() {
    let c = c17();
    check_universe(&c, &bridging_universe(&c, usize::MAX));
}

#[test]
fn full_adder_stuck_at_matches_exhaustive() {
    let c = full_adder();
    check_universe(&c, &stuck_at_universe(&c));
}

#[test]
fn full_adder_bridging_matches_exhaustive() {
    let c = full_adder();
    check_universe(&c, &bridging_universe(&c, usize::MAX));
}

#[test]
fn c95_stuck_at_matches_exhaustive() {
    let c = c95();
    check_universe(&c, &stuck_at_universe(&c));
}

#[test]
fn c95_bridging_matches_exhaustive() {
    let c = c95();
    // c95's NFBF sets are large; a deterministic 120-per-kind slice keeps
    // the oracle (512 vectors x scalar resimulation per fault) affordable.
    check_universe(&c, &bridging_universe(&c, 120));
}

// ---------------------------------------------------------------------------
// Extended fault models vs the ternary reference simulator.
//
// Feedback bridges close a structural loop, so the binary oracle above no
// longer applies: both the engine (symbolically) and the packed ternary
// simulator (vector by vector) compute the least fixpoint of the 0/1/X
// loop, from entirely separate code. `assert_matches_ternary_oracle`
// demands bit-equal detectability, test counts, and oscillation densities.
// Double stuck-at faults are acyclic, so they get both oracles: the
// exhaustive binary multi-fault simulation (via `check_universe`) and the
// ternary runner.
// ---------------------------------------------------------------------------

#[test]
fn c17_feedback_bridging_matches_ternary_oracle() {
    let c = c17();
    let faults = feedback_universe(&c, usize::MAX);
    assert_matches_ternary_oracle(&c, &faults, &sweep_config(Parallelism::Serial));
}

#[test]
fn c95_feedback_bridging_matches_ternary_oracle() {
    let c = c95();
    // Capped per kind: the oracle runs 2^9 vectors through a Gauss-Seidel
    // fixpoint per fault.
    let faults = feedback_universe(&c, 40);
    assert_matches_ternary_oracle(&c, &faults, &sweep_config(Parallelism::Serial));
}

#[test]
fn alu74181_sampled_feedback_bridging_matches_ternary_oracle() {
    let c = alu74181();
    // 2^14 vectors per oracle call: an evenly spaced sample keeps this a
    // seconds-scale test while still covering both bridge kinds.
    let universe = feedback_universe(&c, usize::MAX);
    let step = universe.len().div_ceil(12).max(1);
    let faults: Vec<Fault> = universe.into_iter().step_by(step).collect();
    assert_matches_ternary_oracle(&c, &faults, &sweep_config(Parallelism::Serial));
}

#[test]
fn c17_pairwise_multi_matches_exhaustive() {
    let c = c17();
    let faults = multi_universe(&c, usize::MAX);
    // Binary oracle: exact counts and per-output observability.
    check_universe(&c, &faults);
    // Ternary oracle: same counts, and never an oscillation (acyclic model).
    assert_matches_ternary_oracle(&c, &faults, &sweep_config(Parallelism::Serial));
}

#[test]
fn full_adder_pairwise_multi_matches_exhaustive() {
    let c = full_adder();
    let faults = multi_universe(&c, usize::MAX);
    check_universe(&c, &faults);
    assert_matches_ternary_oracle(&c, &faults, &sweep_config(Parallelism::Serial));
}

// ---------------------------------------------------------------------------
// Big-surrogate layer: the ordering heuristics pinned to ground truth.
//
// At 36/41 inputs the exhaustive oracle above (2^n scalar simulations per
// fault) is out of reach, so the surrogates get the feasible projection of
// the same idea, on a deterministic sample of stuck-at faults:
//
// * two *independently ordered* engines (fanin-DFS and the declared
//   identity order are different permutations) must agree bit-for-bit on every exact
//   metric — OBDD canonicity makes shared mistakes across orders
//   essentially impossible;
// * the complete test set of each fault is spot-checked vector-by-vector
//   against the scalar fault simulator (shared-code-free, like the small
//   circuits' oracle): membership in the BDD test set must equal scalar
//   detection for every sampled vector.
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random input vector stream (splitmix64 bits).
fn sampled_vectors(n: usize, count: usize, mut state: u64) -> Vec<Vec<bool>> {
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let mut v = Vec::with_capacity(n);
            let mut bits = 0u64;
            for i in 0..n {
                if i % 64 == 0 {
                    bits = next();
                }
                v.push(bits >> (i % 64) & 1 == 1);
            }
            v
        })
        .collect()
}

/// An evenly spaced, deterministic sample of at most `cap` universe faults.
fn sampled_faults(circuit: &Circuit, cap: usize) -> Vec<Fault> {
    let universe = stuck_at_universe(circuit);
    let step = universe.len().div_ceil(cap).max(1);
    universe.into_iter().step_by(step).take(cap).collect()
}

fn check_surrogate_sampled(circuit: &Circuit, fault_cap: usize, vectors_per_fault: usize) {
    let faults = sampled_faults(circuit, fault_cap);
    assert!(!faults.is_empty() && faults.len() <= 64);
    let config = |order| EngineConfig {
        order,
        ..Default::default()
    };
    let mut dfs = DiffProp::with_config(circuit, config(OrderStrategy::FaninDfs));
    let mut declared = DiffProp::with_config(circuit, config(OrderStrategy::Identity));
    // The two engines really run different permutations.
    assert_ne!(
        dfs.good().manager().order(),
        declared.good().manager().order(),
        "heuristics coincide on {}; the cross-order check would be vacuous",
        circuit.name()
    );
    let vectors = sampled_vectors(circuit.num_inputs(), vectors_per_fault, 1990);
    for fault in &faults {
        let a = dfs.analyze(fault);
        let b = declared.analyze(fault);
        assert_eq!(
            a.test_count,
            b.test_count,
            "orders disagree on test_count for {fault} on {}",
            circuit.name()
        );
        assert_eq!(
            a.detectability.to_bits(),
            b.detectability.to_bits(),
            "orders disagree on detectability for {fault}"
        );
        assert_eq!(
            a.observable_outputs, b.observable_outputs,
            "orders disagree on observability for {fault}"
        );
        assert!(a.site_function_constant, "{fault} site not constant");
        // Scalar oracle: BDD test-set membership == scalar fault detection.
        for v in &vectors {
            assert_eq!(
                dfs.good().manager().eval(a.test_set, v),
                detects(circuit, fault, v),
                "test set of {fault} wrong at a sampled vector on {}",
                circuit.name()
            );
        }
    }
}

#[test]
fn c432s_sampled_stuck_at_matches_scalar_oracle_under_ordering() {
    check_surrogate_sampled(&c432_surrogate(), 48, 96);
}

// ---------------------------------------------------------------------------
// Batch-vs-single layer: cone-disjoint fused propagation is a pure
// scheduling change.
//
// The fused batch path (PR7) analyses several cone-disjoint stuck-at
// faults in one propagation pass. Differentially, every batched summary
// must equal — bit for bit — what a fresh engine computes for the same
// fault alone; and the greedy packer itself must be deterministic and
// sound (pairwise-disjoint cones inside every batch).
// ---------------------------------------------------------------------------

/// Sweeps `faults` with fused batches enabled and checks every summary
/// against a single-fault engine run in isolation.
fn check_batch_vs_single(circuit: &Circuit, faults: &[Fault]) {
    let sweep = sweep_universe(
        circuit,
        faults,
        &SweepConfig {
            batch: 8,
            parallelism: Parallelism::Threads(2),
            ..Default::default()
        },
    );
    assert_eq!(sweep.summaries.len(), faults.len());
    let mut single = DiffProp::new(circuit);
    for (fault, summary) in faults.iter().zip(&sweep.summaries) {
        let alone = single.analyze(fault);
        assert_eq!(
            summary.test_count,
            alone.test_count,
            "batched test_count for {fault} on {}",
            circuit.name()
        );
        assert_eq!(
            summary.detectability.to_bits(),
            alone.detectability.to_bits(),
            "batched detectability for {fault} on {}",
            circuit.name()
        );
        assert_eq!(
            summary.observable_outputs,
            alone.observable_outputs,
            "batched observability for {fault} on {}",
            circuit.name()
        );
    }
}

#[test]
fn c95_batched_sweep_matches_single_fault_analyses() {
    let c = c95();
    let mut faults = stuck_at_universe(&c);
    faults.extend(bridging_universe(&c, 20));
    check_batch_vs_single(&c, &faults);
}

#[test]
fn alu74181_batched_sweep_matches_single_fault_analyses() {
    let c = alu74181();
    check_batch_vs_single(&c, &stuck_at_universe(&c));
}

#[test]
fn c432s_sampled_batched_sweep_matches_single_fault_analyses() {
    let c = c432_surrogate();
    check_batch_vs_single(&c, &sampled_faults(&c, 32));
}

#[test]
fn batch_packing_is_deterministic_and_cone_sound() {
    for circuit in [c95(), alu74181()] {
        let faults = stuck_at_universe(&circuit);
        let collapsed = collapse_faults(&circuit, &faults);
        let reach = Reachability::compute(&circuit);
        let batches = plan_batches(&faults, &collapsed.classes, &reach, 8);
        // Deterministic: replanning from scratch yields the same packing.
        let replay = plan_batches(&faults, &collapsed.classes, &reach, 8);
        assert_eq!(batches, replay, "packing is not deterministic");
        // Exact cover of the class list.
        let mut seen: Vec<usize> = batches.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..collapsed.classes.len()).collect::<Vec<_>>());
        // Sound: representatives inside one batch have pairwise-disjoint
        // fanout cones (the condition that makes fusion exact).
        for batch in &batches {
            assert!(batch.len() <= 8);
            for (i, &x) in batch.iter().enumerate() {
                for &y in &batch[i + 1..] {
                    let site = |class: usize| match &faults[collapsed.classes[class].representative]
                    {
                        Fault::StuckAt(f) => match f.site {
                            diffprop::faults::FaultSite::Net(n) => n,
                            diffprop::faults::FaultSite::Branch(b) => b.sink,
                        },
                        Fault::Bridging(_) | Fault::MultiStuckAt(_) => {
                            panic!("multi-site fault packed into a batch")
                        }
                    };
                    assert!(
                        reach.cones_disjoint(site(x), site(y)),
                        "batch on {} packs overlapping cones",
                        circuit.name()
                    );
                }
            }
        }
    }
}

#[test]
fn c499s_sampled_stuck_at_matches_scalar_oracle_under_ordering() {
    check_surrogate_sampled(&c499_surrogate(), 24, 64);
}
