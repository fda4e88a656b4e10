//! Fault universes for combinational circuits: checkpoint stuck-at faults and
//! non-feedback bridging faults (NFBFs), exactly as scoped by the paper's §2.
//!
//! * [`checkpoint_faults`] — single stuck-at faults on primary inputs and
//!   fanout branches (Bossen & Hong checkpoints), with
//!   [`collapse_checkpoint_faults`] applying gate-input fault equivalence to
//!   keep one representative per class.
//! * [`enumerate_nfbfs`] — all two-wire AND / OR bridging faults that are
//!   non-feedback (neither wire in the other's fanout cone) and not
//!   trivially undetectable (e.g. the AND bridge between two inputs of the
//!   same AND gate); [`enumerate_bridges`] generalises to the
//!   [`BridgeTopology::Feedback`] pairs the old screen discarded.
//! * [`pair_multis`] / [`sampled_multis`] — multiple stuck-at universes
//!   (all checkpoint pairs, plus seeded samples of higher multiplicities).
//! * [`sample_nfbfs`] — the paper's layout-weighted random sampling:
//!   estimated coordinates, Euclidean distance normalised to the largest
//!   pair distance, selection weighted by the exponential density
//!   `f(z) = (1/θ)·e^(−z/θ)`.
//! * [`collapse_faults`] — structural equivalence classes over a mixed fault
//!   universe (fanout-free controlled-gate and BUF/NOT forwarding applied to
//!   a fixpoint), so sweep engines propagate one representative per class.
//!
//! # Examples
//!
//! ```
//! use dp_faults::{checkpoint_faults, collapse_checkpoint_faults, enumerate_nfbfs, BridgeKind};
//! use dp_netlist::generators::c17;
//!
//! let c = c17();
//! let all = checkpoint_faults(&c);
//! assert_eq!(all.len(), 22); // 5 PIs + 6 branches, two polarities each
//! let collapsed = collapse_checkpoint_faults(&c, &all);
//! assert!(collapsed.len() < all.len());
//! let bridges = enumerate_nfbfs(&c, BridgeKind::And);
//! assert!(!bridges.is_empty());
//! ```

mod bridging;
mod collapse;
mod multi;
mod sample;
mod stuck;

pub use bridging::{enumerate_bridges, enumerate_nfbfs, BridgeKind, BridgeTopology, BridgingFault};
pub use collapse::{
    canonical_stuck_at, collapse_faults, CollapseStats, CollapsedUniverse, FaultClass,
};
pub use multi::{pair_multis, sampled_multis, MultiStuckAt};
pub use sample::{sample_nfbfs, tune_theta, SampleConfig};
pub use stuck::{
    all_stuck_faults, checkpoint_faults, collapse_checkpoint_faults, FaultSite, StuckAtFault,
};

use dp_netlist::NetId;

/// Any fault the Difference Propagation engine can analyse.
///
/// `Fault` is cheap to clone — the multiple stuck-at variant shares its
/// component list behind an `Arc` — but no longer `Copy`, so sweep layers
/// clone explicitly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Fault {
    /// A single stuck-at fault.
    StuckAt(StuckAtFault),
    /// A two-wire bridging fault.
    Bridging(BridgingFault),
    /// Several stuck-at components present simultaneously.
    MultiStuckAt(MultiStuckAt),
}

impl Fault {
    /// The nets whose value the fault directly corrupts (one for stuck-at,
    /// two for bridging, one per component for a multiple fault).
    pub fn sites(&self) -> Vec<NetId> {
        match self {
            Fault::StuckAt(f) => vec![f.site.net()],
            Fault::Bridging(f) => vec![f.a, f.b],
            Fault::MultiStuckAt(f) => f.site_nets(),
        }
    }
}

impl From<StuckAtFault> for Fault {
    fn from(f: StuckAtFault) -> Self {
        Fault::StuckAt(f)
    }
}

impl From<BridgingFault> for Fault {
    fn from(f: BridgingFault) -> Self {
        Fault::Bridging(f)
    }
}

impl From<MultiStuckAt> for Fault {
    fn from(f: MultiStuckAt) -> Self {
        Fault::MultiStuckAt(f)
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::StuckAt(x) => write!(f, "{x}"),
            Fault::Bridging(x) => write!(f, "{x}"),
            Fault::MultiStuckAt(x) => write!(f, "{x}"),
        }
    }
}
