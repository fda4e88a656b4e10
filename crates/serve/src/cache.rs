//! The snapshot cache behind `dp-serve`: compiled circuits and frozen
//! good-function snapshots, keyed by netlist digest and order strategy,
//! behind an LRU with a byte budget.
//!
//! The cache exists for exactly one reason: a repeated sweep through the
//! server must perform **zero** good-function builds. A hit hands the
//! request an [`Arc`]'d [`CacheEntry`] whose [`GoodSnapshot`] every worker
//! thaws into a private delta manager ([`dp_core::sweep_universe_ext`]'s
//! warm path), so the request's manager counters are thaw-only — the build
//! cost stays attributed to the admission that paid it.
//!
//! Keying and eviction rules:
//!
//! * The key is `(circuit digest, order-strategy name)`. The digest
//!   ([`dp_netlist::Circuit::digest`]) pins the netlist structurally, so a
//!   renamed or rewired circuit can never alias a stale snapshot; the order
//!   strategy is part of the key because a snapshot freezes its variable
//!   order — thawing a fanin-DFS base cannot serve an `identity` request's
//!   cost model.
//! * The cache holds only unbudgeted builds, which cannot trip. A request
//!   that carries a budget never reaches it: the server runs the local
//!   code for it, building under the budget (a sweep that trips degrades
//!   every class, as `diffprop analyze` does), so its answer is the local
//!   run's and the cache's counters do not move.
//! * Eviction is least-recently-used by byte size
//!   ([`dp_core::GoodSnapshot::approx_bytes`]), but an entry with live
//!   borrowers (`Arc::strong_count > 1`: some request is still sweeping
//!   against it) is never evicted — the budget overshoots instead, and the
//!   next admission retries once the borrowers drop.

use std::sync::Arc;

use dp_core::GoodSnapshot;
use dp_netlist::Circuit;

use crate::protocol::CacheStatus;

/// Cache identity: netlist digest × order-strategy name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`Circuit::digest`] of the compiled netlist.
    pub digest: u64,
    /// [`dp_core::OrderStrategy::name`] of the requested order.
    pub order: String,
}

/// One resident entry: the compiled circuit and its frozen good functions.
#[derive(Debug)]
pub struct CacheEntry {
    /// The compiled netlist the snapshot was built from. Requests use this
    /// circuit (not their own compilation) so net ids and snapshot node ids
    /// always agree.
    pub circuit: Circuit,
    /// The frozen good functions every request worker thaws.
    pub snapshot: GoodSnapshot,
}

impl CacheEntry {
    /// The budgeting size of the entry.
    pub fn bytes(&self) -> usize {
        self.snapshot.approx_bytes()
    }
}

#[derive(Debug)]
struct Slot {
    key: CacheKey,
    entry: Arc<CacheEntry>,
    /// Monotonic use counter; smallest = least recently used.
    last_used: u64,
}

/// The LRU snapshot cache. Interior mutability is the caller's problem
/// (the server wraps it in a `Mutex`); builds happen *outside* any lock,
/// with [`SnapshotCache::admit`] resolving the race when two misses build
/// the same key concurrently.
#[derive(Debug)]
pub struct SnapshotCache {
    budget_bytes: usize,
    slots: Vec<Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SnapshotCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> SnapshotCache {
        SnapshotCache {
            budget_bytes,
            slots: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks the key up, bumping its recency on a hit and the miss counter
    /// otherwise.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let tick = self.touch();
        match self.slots.iter_mut().find(|s| s.key == *key) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits += 1;
                Some(Arc::clone(&slot.entry))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Admits a freshly built entry, evicting LRU entries past the byte
    /// budget. If the key is already resident (a concurrent miss built it
    /// first), the resident entry wins and the new build is dropped — both
    /// were built from the same digest and order, so they are
    /// interchangeable, and keeping the resident one preserves its
    /// borrowers' recency.
    ///
    /// Admission never counts as a hit or miss (the preceding
    /// [`SnapshotCache::lookup`] already did), and the just-admitted entry
    /// can never be evicted by its own admission: the caller still holds
    /// the returned `Arc`, which makes it live.
    pub fn admit(&mut self, key: CacheKey, entry: Arc<CacheEntry>) -> Arc<CacheEntry> {
        let tick = self.touch();
        if let Some(slot) = self.slots.iter_mut().find(|s| s.key == key) {
            slot.last_used = tick;
            return Arc::clone(&slot.entry);
        }
        self.slots.push(Slot {
            key,
            entry: Arc::clone(&entry),
            last_used: tick,
        });
        self.evict_to_budget();
        entry
    }

    /// Evicts least-recently-used *dead* entries (no outside borrowers)
    /// until the resident bytes fit the budget or nothing evictable is
    /// left. Live entries make the budget overshoot rather than ever being
    /// dropped mid-sweep.
    fn evict_to_budget(&mut self) {
        while self.resident_bytes() > self.budget_bytes {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| Arc::strong_count(&s.entry) == 1)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    self.slots.remove(i);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }

    fn resident_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.entry.bytes()).sum()
    }

    /// Counters for the `status` frame.
    pub fn status(&self) -> CacheStatus {
        CacheStatus {
            entries: self.slots.len() as u64,
            bytes: self.resident_bytes() as u64,
            budget_bytes: self.budget_bytes as u64,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{DiffProp, EngineConfig, OrderStrategy};
    use dp_netlist::generators;

    fn entry_for(circuit: Circuit, order: OrderStrategy) -> (CacheKey, Arc<CacheEntry>) {
        let key = CacheKey {
            digest: circuit.digest(),
            order: order.name(),
        };
        let snapshot = DiffProp::build_snapshot(
            &circuit,
            EngineConfig {
                order,
                ..Default::default()
            },
        )
        .expect("unbudgeted build");
        (key, Arc::new(CacheEntry { circuit, snapshot }))
    }

    #[test]
    fn same_digest_different_order_strategy_misses() {
        let mut cache = SnapshotCache::new(usize::MAX);
        let (k1, e1) = entry_for(generators::c95(), OrderStrategy::Identity);
        assert!(cache.lookup(&k1).is_none());
        cache.admit(k1.clone(), e1);
        assert!(cache.lookup(&k1).is_some(), "same key hits");
        let k2 = CacheKey {
            digest: generators::c95().digest(),
            order: OrderStrategy::FaninDfs.name(),
        };
        assert_eq!(k1.digest, k2.digest, "one circuit, two strategies");
        assert!(
            cache.lookup(&k2).is_none(),
            "an order-strategy change must miss: the frozen base bakes in its order"
        );
        let s = cache.status();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn live_entries_survive_eviction_pressure() {
        // Budget of zero: every admission is over budget immediately.
        let mut cache = SnapshotCache::new(0);
        let (k1, e1) = entry_for(generators::c17(), OrderStrategy::Identity);
        let live = cache.admit(k1.clone(), e1);
        // Held `live` borrow → strong_count 2 → not evictable, despite the
        // budget already being blown.
        let (k2, e2) = entry_for(generators::c95(), OrderStrategy::Identity);
        let live2 = cache.admit(k2.clone(), e2);
        assert_eq!(cache.status().entries, 2, "both entries live, none evicted");
        assert_eq!(cache.status().evictions, 0);
        assert!(cache.lookup(&k1).is_some());
        // Dropping the borrows makes them fair game: the next admission
        // evicts both stale entries (budget 0 keeps nothing dead).
        drop(live);
        drop(live2);
        let (k3, e3) = entry_for(generators::full_adder(), OrderStrategy::Identity);
        let _live3 = cache.admit(k3.clone(), e3);
        assert!(cache.lookup(&k1).is_none(), "dead LRU entry evicted");
        assert!(cache.lookup(&k2).is_none(), "dead LRU entry evicted");
        assert_eq!(cache.status().evictions, 2);
        assert_eq!(cache.status().entries, 1, "only the live admission stays");
    }

    #[test]
    fn lru_evicts_the_coldest_dead_entry_first() {
        let (k1, e1) = entry_for(generators::c17(), OrderStrategy::Identity);
        let (k2, e2) = entry_for(generators::full_adder(), OrderStrategy::Identity);
        let (k3, e3) = entry_for(generators::c95(), OrderStrategy::Identity);
        // Budget sized so that the final resident set (k1 + k3) fits exactly:
        // admitting k3 must evict precisely one entry — the coldest.
        let budget = e1.bytes() + e3.bytes();
        assert!(
            e1.bytes() + e2.bytes() <= budget,
            "both small entries fit initially"
        );
        let mut cache = SnapshotCache::new(budget);
        drop(cache.admit(k1.clone(), e1));
        drop(cache.admit(k2.clone(), e2));
        // Touch k1 so k2 becomes the LRU.
        assert!(cache.lookup(&k1).is_some());
        drop(cache.admit(k3.clone(), e3));
        assert_eq!(
            cache.status().evictions,
            1,
            "one eviction restores the budget"
        );
        assert!(cache.lookup(&k1).is_some(), "recently used survives");
        assert!(cache.lookup(&k2).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&k3).is_some(), "new entry resident");
    }

    #[test]
    fn concurrent_build_race_keeps_the_resident_entry() {
        let mut cache = SnapshotCache::new(usize::MAX);
        let (key, first) = entry_for(generators::c17(), OrderStrategy::Identity);
        let (_, second) = entry_for(generators::c17(), OrderStrategy::Identity);
        let a = cache.admit(key.clone(), first);
        let b = cache.admit(key.clone(), second);
        assert!(
            Arc::ptr_eq(&a, &b),
            "second admission returns the resident entry"
        );
        assert_eq!(cache.status().entries, 1);
    }
}
