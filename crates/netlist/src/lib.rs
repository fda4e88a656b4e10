//! Gate-level combinational netlists for fault-model analysis.
//!
//! This crate is the structural substrate of the Difference Propagation
//! reproduction. It provides:
//!
//! * a validated combinational circuit IR ([`Circuit`], [`CircuitBuilder`]):
//!   single-driver nets, acyclicity, topological order, levelisation, fanin /
//!   fanout cones,
//! * a dense transitive-fanout **reachability matrix** ([`Reachability`])
//!   shared by the bridging-fault feedback screen and the cone-restricted
//!   propagation engine,
//! * an ISCAS-85 **`.bench`** parser and writer ([`parse_bench`],
//!   [`write_bench`]) so the original Brglez–Fujiwara netlists drop in
//!   unmodified,
//! * the paper's layout-estimate **topology model** (§2.2): X = level from
//!   the primary inputs, Y = average of fanin Y coordinates
//!   ([`Placement`]),
//! * a static OBDD **variable-ordering heuristic** derived from the circuit
//!   DAG ([`ordering::fanin_dfs_order`]),
//! * netlist **transformations**: n-input → 2-input gate decomposition and
//!   the XOR → four-NAND expansion that derives C1355 from C499
//!   ([`decompose_two_input`], [`expand_xor_to_nand`]), and the finder
//!   that recognises the expanded XORs again ([`find_xor_quads`]),
//! * programmatic **generators** for the paper's benchmark set
//!   ([`generators`]).
//!
//! # Examples
//!
//! ```
//! use dp_netlist::generators::c17;
//!
//! let c = c17();
//! assert_eq!(c.num_inputs(), 5);
//! assert_eq!(c.num_outputs(), 2);
//! assert_eq!(c.num_gates(), 6);
//! ```

mod bench_format;
mod circuit;
mod error;
pub mod generators;
pub mod ordering;
mod reach;
mod scoap;
mod topology;
mod transform;

pub use bench_format::{parse_bench, write_bench};
pub use circuit::{Circuit, CircuitBuilder, Driver, FanoutBranch, GateKind, NetId};
pub use error::NetlistError;
pub use reach::Reachability;
pub use scoap::Scoap;
pub use topology::{Placement, Point};
pub use transform::{decompose_two_input, expand_xor_to_nand, find_xor_quads, XorQuad, XorQuads};
