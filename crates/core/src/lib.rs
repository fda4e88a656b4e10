//! **Difference Propagation** — the paper's contribution.
//!
//! Difference Propagation (Butler & Mercer, DAC 1990) computes, for any
//! logical fault in a combinational circuit, the *complete test set*: the
//! Boolean function over the primary inputs whose minterms are exactly the
//! vectors detecting the fault. It works by propagating *difference
//! functions* `Δf = f ⊕ F` (good XOR faulty) from the fault site to the
//! primary outputs, using gate-local identities (the paper's Table 1) that
//! need only the good functions and input differences:
//!
//! | Gate        | ΔC                              |
//! |-------------|---------------------------------|
//! | AND / NAND  | `fA·ΔB ⊕ fB·ΔA ⊕ ΔA·ΔB`         |
//! | OR / NOR    | `¬fA·ΔB ⊕ ¬fB·ΔA ⊕ ΔA·ΔB`       |
//! | XOR / XNOR  | `ΔA ⊕ ΔB`                       |
//! | NOT / BUF   | `ΔA`                            |
//!
//! All functions are OBDDs ([`dp_bdd`]). Because the identities are derived
//! independently of the fault type, *any* fault whose effect is logical can
//! be analysed — one entry point, [`DiffProp::analyze`] (or the
//! budget-honouring [`DiffProp::try_analyze`]), handles single stuck-at
//! faults (net or fanout branch), two-wire AND/OR bridging faults (feedback
//! pairs through a ternary fixpoint) and multiple stuck-at faults, and
//! returns one [`FaultAnalysis`] for each.
//!
//! From the complete test set follow the paper's exact metrics:
//!
//! * **detectability** — the fraction of input vectors detecting the fault,
//! * **syndrome** — the fraction of vectors setting a line to 1 (Savir),
//!   an upper bound on stuck-at detectability,
//! * **adherence** — detectability divided by its syndrome bound,
//! * **observable outputs** — the POs at which the fault is visible.
//!
//! Applications and companions built on the engine:
//!
//! * [`sweep_universe`] — a collapsed, batched, work-stealing sweep of a
//!   whole fault universe ([`sweep_universe_ext`] adds a warm snapshot and
//!   an in-order record stream),
//! * [`generate_tests`] — compact ATPG with exact redundancy proofs,
//! * [`FaultDictionary`] — full-response dictionaries and diagnosis,
//! * [`find_redundancies`] — whole-circuit redundancy identification,
//! * [`GoodFunctions::build_auto_decomposed`] — cut-point functional
//!   decomposition (the paper's reference \[21\]),
//! * [`Observability`] — the CATAPULT-style disjoint
//!   controllability/observability engine DP is contrasted with.
//!
//! # Examples
//!
//! ```
//! use dp_core::DiffProp;
//! use dp_faults::{checkpoint_faults, Fault};
//! use dp_netlist::generators::c17;
//!
//! let circuit = c17();
//! let mut dp = DiffProp::new(&circuit);
//! let fault = Fault::from(checkpoint_faults(&circuit)[0]);
//! let analysis = dp.analyze(&fault);
//! assert!(analysis.is_detectable());
//! // The exact count agrees with brute-force simulation of all 32 vectors.
//! let (detected, _) = dp_sim::exhaustive_detectability(&circuit, &fault);
//! assert_eq!(analysis.test_count, Some(detected as u128));
//! let vector = dp.pick_test(&analysis).expect("detectable");
//! assert!(dp_sim::detects(&circuit, &fault, &vector));
//! ```

mod atpg;
mod decomp;
mod delta;
mod dictionary;
mod engine;
mod error;
mod good;
mod observability;
mod order;
mod parallel;
mod redundancy;
mod report;

pub use atpg::{generate_tests, generate_tests_with, TestSet};
pub use delta::{delta_output, naive_delta_output};
pub use dictionary::{Candidate, FaultDictionary, Signature};
pub use dp_bdd::BudgetConfig;
pub use dp_telemetry::TelemetryLevel;
pub use engine::{DiffProp, EngineConfig, FaultAnalysis};
pub use error::AnalysisError;
pub use good::{GoodFunctions, GoodSnapshot};
pub use observability::Observability;
pub use order::OrderStrategy;
pub use parallel::{
    plan_batches, sweep_universe, sweep_universe_ext, ClassId, FaultOutcome, FaultSummary,
    Parallelism, RecordSink, ShardReport, SweepConfig, SweepResult, WORKER_PANIC,
};
pub use redundancy::{find_redundancies, RedundancyReport};
pub use report::{summaries_digest, summary_from_line, summary_line, sweep_report};
