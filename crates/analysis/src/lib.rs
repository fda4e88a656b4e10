//! Experiment drivers and statistics reproducing the paper's evaluation
//! (§4, Figures 1–8 plus the §4.1 observability observation).
//!
//! The layering is:
//!
//! * [`FaultRecord`] / [`analyze_faults`] — run Difference Propagation over a
//!   fault list and keep one scalar record per fault (detectability,
//!   adherence, observability, topology coordinates);
//! * [`Histogram`] — fault-proportion histograms (Figures 1, 4, 6);
//! * [`trends`] — circuit-set mean-detectability series (Figures 2, 7);
//! * [`topology`] — detectability versus distance-to-PO/PI curves
//!   (Figures 3, 8);
//! * [`figures`] — the one implementation of every paper artifact: a
//!   [`figures::Lab`] sweeps each circuit's fault sets once and its drivers
//!   return the printable series that `diffprop figures` renders and the
//!   paper-claims tests and bench harness call;
//! * [`correlation`] — Spearman rank correlations between exact
//!   detectabilities and SCOAP testability estimates;
//! * [`coverage`] — pseudo-random test-length planning and double-fault
//!   coverage of single-fault test sets (Hughes–McCluskey).
//!
//! # Examples
//!
//! ```
//! use dp_analysis::{analyze_faults, stuck_at_universe};
//! use dp_netlist::generators::c17;
//!
//! let c = c17();
//! let faults = stuck_at_universe(&c, true);
//! let records = analyze_faults(&c, &faults);
//! assert_eq!(records.len(), faults.len());
//! assert!(records.iter().all(|r| r.detectability > 0.0)); // c17 is irredundant
//! ```

pub mod correlation;
pub mod coverage;
pub mod figures;
mod histogram;
mod records;
pub mod topology;
pub mod trends;

pub use histogram::Histogram;
pub use records::{
    analyze_faults, bridging_universe, fault_model_universe, feedback_bridging_universe,
    multi_universe, records_from_summaries, stuck_at_universe, FaultRecord,
};
