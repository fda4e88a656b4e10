//! PODEM (Goel 1981): path-oriented structural test generation — the
//! conventional-ATPG baseline the paper's Difference Propagation is an
//! alternative to.
//!
//! Where Difference Propagation computes the *complete* test set of a fault
//! functionally, PODEM searches the primary-input space for *one* test:
//! five-valued forward implication (`0`, `1`, `X`, `D`, `D̄` — encoded here
//! as good/faulty ternary pairs), objective selection on the D-frontier,
//! SCOAP-guided backtrace to an unassigned input, and chronological
//! backtracking. It is complete: given enough backtracks it either returns
//! a test or proves the fault untestable.
//!
//! The test suite cross-validates PODEM's verdicts against Difference
//! Propagation's exact detectabilities and its vectors against the
//! bit-parallel fault simulator; `diffprop figures --only ablations`
//! counts the two generators' costs.
//!
//! # Examples
//!
//! ```
//! use dp_faults::checkpoint_faults;
//! use dp_netlist::generators::c17;
//! use dp_podem::{generate_test, PodemResult};
//!
//! let circuit = c17();
//! let fault = checkpoint_faults(&circuit)[0];
//! match generate_test(&circuit, &fault, 10_000) {
//!     PodemResult::Test(vector) => assert_eq!(vector.len(), 5),
//!     other => panic!("c17 faults are testable: {other:?}"),
//! }
//! ```

mod engine;
mod fivev;

pub use engine::{generate_test, generate_test_with_stats, PodemResult, PodemStats};
pub use fivev::{FiveV, Tern};
