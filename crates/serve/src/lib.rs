//! **Sweep-as-a-service**: a resident server that amortises good-function
//! construction across requests.
//!
//! Building the good-function OBDDs dominates short sweeps — on the deep
//! ISCAS surrogates it is seconds of work before the first fault is even
//! looked at. A batch CLI pays that price per invocation; `dp-serve` pays
//! it once per `(circuit, order strategy)` pair and keeps the frozen
//! [`dp_core::GoodSnapshot`] resident, so every subsequent unbudgeted
//! request thaws delta managers against the shared base and performs **zero**
//! good-function builds (provable from the manager counters: a warm
//! sweep's `unique.lookups` plus the one-off build cost equals a cold
//! sweep's, exactly).
//!
//! Three layers:
//!
//! * [`protocol`] — newline-delimited JSON framing: requests (`sweep`,
//!   `detectability`, `adherence`, `status`, `shutdown`), streamed
//!   `record` frames carrying the exact batch TSV per fault, and the
//!   schema-v2 `done` report with its `stream` section.
//! * [`cache`] — the [`cache::SnapshotCache`]: LRU over
//!   `(netlist digest, order name)` with a byte budget; live entries are
//!   never evicted.
//! * [`server`] / [`client`] — the std-TCP accept loop (thread per
//!   connection) and the blocking client behind `diffprop`'s service
//!   commands (`analyze --connect`, `detectability`, `adherence`,
//!   `status`, `shutdown`).
//!
//! See `DESIGN.md` §8 for the protocol walk-through and the cache's
//! correctness argument.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CacheEntry, CacheKey, SnapshotCache};
pub use client::{Client, SweepOutcome};
pub use protocol::{
    CacheStatus, CircuitSpec, Frame, PointParams, ProtocolError, Request, SweepParams,
    MAX_FALLBACK_SAMPLES, MAX_REQUEST_BYTES, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, DEFAULT_ADDR};
