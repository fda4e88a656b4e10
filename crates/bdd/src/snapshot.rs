//! Frozen manager snapshots: an immutable, shareable base for delta
//! managers.
//!
//! [`Manager::freeze`] consumes a manager and packages its node arena,
//! unique table and variable order into a [`FrozenManager`] — a cheap-to-
//! clone `Arc` handle that is `Send + Sync` because nothing behind it is
//! ever mutated again. [`FrozenManager::thaw`] then produces any number of
//! *delta managers*: ordinary [`Manager`]s whose node-id space starts where
//! the base ends and whose `mk` probes the base unique table before the
//! private one (copy-on-write lookup). Each delta manager keeps a private
//! op cache, budget window and stats block; garbage collection and sifting
//! touch only the delta (the base order is fixed at freeze time), so
//! workers can run concurrently against one shared base with zero
//! synchronisation.
//!
//! The hi-regular/complement-edge canonical form is a property of the node
//! *table*, not of who owns it, so every invariant checked by
//! [`Manager::assert_canonical`] carries over: base ids, delta ids and
//! their complement edges all keep denoting the same functions.

use std::sync::Arc;

use crate::manager::{Manager, Node, Var};
use crate::stats::ManagerStats;
use crate::table::UniqueTable;

/// The immutable innards of a frozen manager, shared behind the `Arc` in
/// [`FrozenManager`]. Fields are crate-visible so `Manager` can resolve
/// lookups against them on its hot path.
#[derive(Debug)]
pub(crate) struct FrozenBase {
    /// The node arena at freeze time; slot 0 is the terminal.
    pub(crate) nodes: Vec<Node>,
    /// The unique table at freeze time (open-addressing, values are arena
    /// indices into `nodes`; maps every stored node to its regular edge).
    pub(crate) unique: UniqueTable,
    /// `var_to_level[v]` at freeze time.
    pub(crate) var_to_level: Vec<u32>,
    /// `level_to_var[l]` at freeze time.
    pub(crate) level_to_var: Vec<Var>,
    /// The building manager's counters at freeze time — the one-off cost of
    /// constructing the shared base, reported separately so sweep totals can
    /// account for it exactly once instead of once per worker.
    pub(crate) build_stats: ManagerStats,
}

/// An immutable, shareable snapshot of a [`Manager`].
///
/// Cloning is an `Arc` bump. The snapshot is `Send + Sync`; hand clones to
/// worker threads and call [`FrozenManager::thaw`] on each to get a private
/// delta manager layered on the shared base.
///
/// # Examples
///
/// ```
/// use dp_bdd::Manager;
///
/// let mut m = Manager::new(2);
/// let a = m.var(0);
/// let b = m.var(1);
/// let f = m.and(a, b);
/// let frozen = m.freeze();
///
/// // Two independent delta managers share the base nodes.
/// let mut w1 = frozen.thaw();
/// let mut w2 = frozen.thaw();
/// assert_eq!(w1.sat_count(f), 1);
/// let g = w2.or(f, f.complemented());
/// assert!(g.is_true());
/// // The base itself never changed: terminal + a + b + (a ∧ b).
/// assert_eq!(frozen.num_nodes(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FrozenManager {
    base: Arc<FrozenBase>,
}

impl FrozenManager {
    pub(crate) fn from_base(base: FrozenBase) -> FrozenManager {
        FrozenManager {
            base: Arc::new(base),
        }
    }

    /// Creates a delta manager over this base: an ordinary [`Manager`] whose
    /// new nodes live in a private arena and whose `mk` resolves against the
    /// base table first. The delta starts with an unlimited budget and fresh
    /// stats (`base_hits`/`delta_lookups` attribute its two-level lookups).
    pub fn thaw(&self) -> Manager {
        Manager::thawed(Arc::clone(&self.base))
    }

    /// Number of nodes frozen into the base (terminal included).
    pub fn num_nodes(&self) -> usize {
        self.base.nodes.len()
    }

    /// Number of variables of the frozen manager.
    pub fn num_vars(&self) -> usize {
        self.base.var_to_level.len()
    }

    /// The variable order fixed at freeze time (root level first).
    pub fn order(&self) -> &[Var] {
        &self.base.level_to_var
    }

    /// The building manager's counters at freeze time (the one-off shared
    /// build cost; delta managers start their own stats at zero).
    pub fn build_stats(&self) -> &ManagerStats {
        &self.base.build_stats
    }

    /// Approximate resident size of the frozen base, in bytes — the node
    /// arena plus the unique table (bucket slots estimated at the table's
    /// capacity) plus the two order maps.
    ///
    /// This is a *budgeting* figure for cache admission/eviction, not an
    /// allocator-exact measurement: it is deterministic for a given base,
    /// monotone in the node count, and within a small constant factor of
    /// the truth — which is all an LRU byte budget needs.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let node = size_of::<Node>();
        // The open-addressing unique table stores one u32 arena index per
        // slot — node keys live only in the arena, so the table costs 4
        // bytes per slot at whatever capacity it last grew to.
        let table_slot = size_of::<u32>();
        self.base.nodes.len() * node
            + self.base.unique.capacity() * table_slot
            + self.base.var_to_level.len() * size_of::<u32>()
            + self.base.level_to_var.len() * size_of::<Var>()
    }

    /// FNV-1a digest of the frozen node table (variables and raw edges).
    ///
    /// Two calls must agree unless the base was mutated — which the type
    /// system forbids — so comparing digests before and after a parallel
    /// sweep is a white-box immutability check.
    pub fn table_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix = |word: u32| {
            for byte in word.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(PRIME);
            }
        };
        for node in &self.base.nodes {
            mix(node.var);
            mix(node.lo.0);
            mix(node.hi.0);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::NodeId;

    fn frozen_xor() -> (FrozenManager, NodeId) {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        (m.freeze(), f)
    }

    #[test]
    fn thawed_manager_reuses_base_nodes() {
        let (frozen, f) = frozen_xor();
        let base_nodes = frozen.num_nodes();
        let mut w = frozen.thaw();
        assert_eq!(w.num_nodes(), base_nodes, "delta starts empty");
        // Rebuilding a base function allocates nothing and returns the
        // frozen id.
        let a = w.var(0);
        let b = w.var(1);
        let f2 = w.xor(a, b);
        assert_eq!(f2, f);
        assert_eq!(w.num_nodes(), base_nodes);
        assert!(w.stats().base_hits > 0, "base hits attributed");
        w.assert_canonical();
    }

    #[test]
    fn delta_nodes_layer_on_top_of_the_base() {
        let (frozen, f) = frozen_xor();
        let base_nodes = frozen.num_nodes();
        let mut w = frozen.thaw();
        let c = w.var(2);
        let g = w.and(f, c);
        assert!(g.index() >= base_nodes, "new node lives in the delta");
        assert!(w.num_nodes() > base_nodes);
        // Functions spanning base and delta evaluate correctly.
        assert!(w.eval(g, &[true, false, true]));
        assert!(!w.eval(g, &[true, false, false]));
        w.assert_canonical();
        let s = w.stats();
        assert_eq!(s.unique.lookups, s.base_hits + s.delta_lookups);
    }

    #[test]
    fn workers_do_not_observe_each_other() {
        let (frozen, f) = frozen_xor();
        let mut w1 = frozen.thaw();
        let mut w2 = frozen.thaw();
        let c1 = w1.var(2);
        let g1 = w1.and(f, c1);
        // w2 never saw w1's allocation.
        assert_eq!(w2.num_nodes(), frozen.num_nodes());
        let c2 = w2.var(2);
        let g2 = w2.and(f, c2);
        // Same function, same id: canonicity holds per delta because both
        // deltas extend the same base arena deterministically.
        assert_eq!(g1, g2);
    }

    #[test]
    fn freeze_is_immutable_under_worker_churn() {
        let (frozen, f) = frozen_xor();
        let digest = frozen.table_digest();
        let nodes = frozen.num_nodes();
        for _ in 0..4 {
            let mut w = frozen.thaw();
            let c = w.var(2);
            let g = w.ite(c, f, f.complemented());
            let _ = w.sat_count(g);
            let remap = w.gc(&[]);
            // Base ids survive a delta gc unchanged.
            assert_eq!(remap.map(f), f);
        }
        assert_eq!(frozen.table_digest(), digest);
        assert_eq!(frozen.num_nodes(), nodes);
    }

    #[test]
    fn delta_gc_reclaims_only_delta_nodes() {
        let (frozen, f) = frozen_xor();
        let mut w = frozen.thaw();
        let c = w.var(2);
        let keep = w.and(f, c);
        let garbage = w.or(f, c);
        let before = w.num_nodes();
        let remap = w.gc(&[keep]);
        assert!(w.num_nodes() < before, "garbage reclaimed");
        assert!(w.num_nodes() >= frozen.num_nodes(), "base never shrinks");
        let keep = remap.map(keep);
        // (a ⊕ b) ∧ c over three variables: {101, 011}.
        assert_eq!(w.sat_count(keep), 2);
        assert_eq!(remap.map(f), f, "base handles are identity-remapped");
        let _ = garbage; // collected; mapping it would panic
        w.assert_canonical();
    }

    #[test]
    fn approx_bytes_is_deterministic_and_node_monotone() {
        let (frozen, _) = frozen_xor();
        let small = frozen.approx_bytes();
        assert!(small > 0);
        assert_eq!(small, frozen.approx_bytes());
        // A visibly larger table must report more bytes.
        let mut m = Manager::new(8);
        let mut f = m.var(0);
        for v in 1..8 {
            let x = m.var(v);
            f = m.xor(f, x);
        }
        let big = m.freeze();
        assert!(big.num_nodes() > frozen.num_nodes());
        assert!(big.approx_bytes() > small);
    }

    #[test]
    fn frozen_manager_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenManager>();
    }

    #[test]
    fn thaw_across_threads_agrees_with_serial() {
        let (frozen, f) = frozen_xor();
        let serial = {
            let mut w = frozen.thaw();
            let c = w.var(2);
            let g = w.and(f, c);
            w.sat_count(g)
        };
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let frozen = frozen.clone();
                std::thread::spawn(move || {
                    let mut w = frozen.thaw();
                    let c = w.var(2);
                    let g = w.and(f, c);
                    w.sat_count(g)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), serial);
        }
    }

    #[test]
    #[should_panic(expected = "delta manager")]
    fn refreezing_a_delta_manager_is_rejected() {
        let (frozen, _) = frozen_xor();
        let w = frozen.thaw();
        let _ = w.freeze();
    }

    #[test]
    #[should_panic(expected = "fixed order")]
    fn sifting_a_delta_manager_is_rejected() {
        let (frozen, f) = frozen_xor();
        let mut w = frozen.thaw();
        let _ = w.sift(&mut [f]);
    }
}
