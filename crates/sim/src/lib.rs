//! Bit-parallel logic simulation and exhaustive fault simulation.
//!
//! This crate is the *baseline* of the reproduction: the paper positions
//! Difference Propagation against "exhaustive simulation or simulation of
//! particular test sets" (§1). [`PackedSim`] evaluates 64 input vectors per
//! sweep; [`exhaustive_detectability`] grinds every one of the `2^n` input
//! vectors through the faulted and fault-free circuit and counts detections —
//! the same exact quantities DP computes analytically, obtained the
//! expensive way. The DP engine's test suite cross-validates against it, and
//! the benchmark harness measures the cost gap.
//!
//! # Examples
//!
//! ```
//! use dp_faults::{checkpoint_faults, Fault};
//! use dp_netlist::generators::c17;
//! use dp_sim::exhaustive_detectability;
//!
//! let c = c17();
//! let fault = Fault::from(checkpoint_faults(&c)[0]);
//! let (detected, total) = exhaustive_detectability(&c, &fault);
//! assert_eq!(total, 32);
//! assert!(detected > 0);
//! ```

mod faultsim;
mod grading;
mod packed;
mod ternary;

pub use faultsim::{
    detects, exhaustive_detectability, faulty_outputs, sampled_fault_estimate, SampledDetectability,
};
pub use grading::{grade_test_set, Grade};
pub use packed::PackedSim;
pub use ternary::{
    ternary_detects, ternary_exhaustive_detectability, ternary_faulty_outputs, Tern,
    TernaryDetectability,
};
