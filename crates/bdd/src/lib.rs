//! Ordered binary decision diagrams (OBDDs) in the style of
//! [Bryant, *Graph-Based Algorithms for Boolean Function Manipulation*, 1986].
//!
//! This crate is the functional substrate of the Difference Propagation
//! reproduction: every net function, fault function and difference function is
//! an OBDD managed by a [`Manager`]. The package provides:
//!
//! * a hash-consed unique table guaranteeing canonicity (structural equality
//!   is functional equality for a fixed variable order),
//! * memoised binary [`Manager::apply`] (`AND`/`OR`/`XOR`), [`Manager::not`],
//!   and ternary [`Manager::ite`],
//! * cofactor-style operations ([`Manager::restrict`], [`Manager::compose`],
//!   [`Manager::exists`], [`Manager::forall`]),
//! * exact model counting ([`Manager::sat_count`], [`Manager::density`]) —
//!   the *syndrome* and *detectability* primitives of the paper,
//! * cube and minterm iteration for extracting explicit test vectors,
//! * garbage collection and variable-order rebuilding.
//!
//! # Examples
//!
//! Build `f = (a AND b) XOR c` and count its minterms:
//!
//! ```
//! use dp_bdd::Manager;
//!
//! let mut m = Manager::new(3);
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! let ab = m.and(a, b);
//! let f = m.xor(ab, c);
//! assert_eq!(m.sat_count(f), 4); // half of the 8 assignments
//! assert_eq!(m.density(f), 0.5);
//! ```

mod budget;
mod count;
mod cubes;
mod error;
mod manager;
mod ops;
mod order;
mod reorder;
mod snapshot;
mod stats;
mod table;

pub use budget::BudgetConfig;
pub use cubes::{Cube, Cubes, Minterms};
pub use error::BddError;
pub use manager::{Manager, NodeId, Remap, Var};
pub use ops::BinOp;
pub use order::{identity_order, inverse_order};
pub use snapshot::FrozenManager;
pub use stats::{CacheCounters, ManagerStats, OpKind};
pub use table::DELTA_OP_CACHE_CAPACITY;
