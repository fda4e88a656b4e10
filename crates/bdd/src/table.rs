//! Cache-conscious kernel tables: the open-addressing unique table, the
//! direct-mapped operation cache, and the compact traversal memo.
//!
//! These structures replace the `std::collections::HashMap`s the kernel
//! grew up with. The motivation is purely mechanical — the hash maps were
//! where sweep time went, not the algorithms above them:
//!
//! * [`UniqueTable`] hash-conses nodes but stores **only `u32` arena
//!   indices**: the 12-byte [`Node`] key lives once, in the arena, and every
//!   probe compares against it in place. Open addressing with linear probing
//!   over a power-of-two slot array keeps a lookup inside one or two cache
//!   lines, and a multiplicative wyhash-style mix of `(var, lo, hi)` replaces
//!   SipHash. Deletion (needed only by the in-place reorder swaps) uses
//!   backward-shift compaction, so the table never accumulates tombstones.
//! * [`OpCache`] is a CUDD-style **direct-mapped, lossy** cache: one slot
//!   per hash, overwrite on collision. It doubles alongside the node arena
//!   (up to a hard cap, so memory stays bounded) because a memo much
//!   smaller than the live node table thrashes apply-style recursions into
//!   super-linear recompute; clearing (on
//!   gc/reorder) is O(1) via a generation stamp. Lossiness is invisible to
//!   results — a hit returns exactly what recomputation would — but the
//!   hit/miss counters and `op_steps` become *layout-dependent*: see
//!   DESIGN.md §9 for which telemetry counters that affects. A dropped
//!   cache of the size a thaw asks for parks its slot array as the one
//!   process-wide spare (any other size is freed), and the next cache of
//!   exactly that capacity takes it over with a stamp bump instead of
//!   allocating and writing every slot: thawing an engine per point query
//!   then costs no allocation. Reuse is at the same capacity only, so
//!   every key maps to the slot it would in a fresh array, and a bumped
//!   stamp reads `None` everywhere, as a fresh array does — every counter
//!   stays what it was.
//! * [`CompactMap`] is a small open-addressing scratch map keyed by raw
//!   `u32` edges, used by the model-counting traversals in `count.rs` in
//!   place of a per-call `HashMap<NodeId, _>`.
//!
//! None of this changes a single result bit: hash quality and replacement
//! policy affect *where* entries live and *whether* a memo hit happens, and
//! every cached value equals its recomputation by canonicity.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::manager::{Node, NodeId};
use crate::ops::OpKey;

/// Vacant-slot sentinel for [`UniqueTable`] and [`CompactMap`]. Arena
/// indices and raw edges stay far below it for any circuit this workspace
/// can represent (`Manager::new` caps variables, and node indices are
/// shifted raw edges well under `u32::MAX`).
const EMPTY: u32 = u32::MAX;

/// Maximum load numerator/denominator: tables grow when `len/capacity`
/// would exceed 3/4 — past that, linear-probe clusters get long enough to
/// cost more than the doubling does.
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

/// wyhash-style 64-bit mix: one 128-bit multiply, fold high into low.
/// Cheap (a handful of cycles), and the multiply avalanche is plenty for
/// power-of-two masking.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let r = (a ^ 0xa076_1d64_78bd_642f) as u128 * (b ^ 0xe703_7ed1_a0b4_28db) as u128;
    (r as u64) ^ ((r >> 64) as u64)
}

/// Hash of a node's identity triple `(var, lo, hi)`.
#[inline]
fn hash_node(node: &Node) -> u64 {
    mix(
        ((node.var as u64) << 32) | node.lo.0 as u64,
        node.hi.0 as u64,
    )
}

/// The hash-consing table: open addressing, linear probing, power-of-two
/// capacity, **values only** — each occupied slot holds the global arena
/// index of a stored node, and key comparison reads the node from the
/// arena slice the caller passes in.
///
/// The arena-slice convention: a table over a private manager (or a frozen
/// base) indexes its slice directly (`offset == 0`); a delta table layered
/// on a frozen base stores *global* indices but owns only the delta slice,
/// so callers pass `offset == base_len` and slot `s` resolves to
/// `nodes[s - offset]`. Each table only ever contains its own arena's
/// nodes, so the subtraction never underflows.
#[derive(Debug, Clone)]
pub(crate) struct UniqueTable {
    /// Slot array; `EMPTY` marks vacancy, anything else is a global node
    /// index.
    slots: Box<[u32]>,
    /// `slots.len() - 1`; capacity is always a power of two.
    mask: usize,
    /// Occupied slots.
    len: usize,
}

impl UniqueTable {
    /// A table pre-sized to hold `expected` nodes without growing.
    pub(crate) fn with_capacity(expected: usize) -> UniqueTable {
        let capacity = Self::capacity_for(expected);
        UniqueTable {
            slots: vec![EMPTY; capacity].into_boxed_slice(),
            mask: capacity - 1,
            len: 0,
        }
    }

    /// Smallest power-of-two capacity that keeps `expected` entries under
    /// the load limit.
    fn capacity_for(expected: usize) -> usize {
        (expected * LOAD_DEN / LOAD_NUM + 1)
            .next_power_of_two()
            .max(64)
    }

    /// Occupied slots (== stored nodes).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Total slots allocated (the memory figure for `approx_bytes`).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Looks up a node by contents; returns its regular edge if present.
    pub(crate) fn get(&self, node: &Node, nodes: &[Node], offset: usize) -> Option<NodeId> {
        let mut i = hash_node(node) as usize & self.mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if nodes[s as usize - offset] == *node {
                return Some(NodeId::from_index(s as usize));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts the node stored at global arena index `index`. The caller
    /// guarantees the node is absent (the `mk` miss path); `nodes`/`offset`
    /// resolve slots back to node contents if the insertion forces a
    /// rehash.
    pub(crate) fn insert(&mut self, index: usize, node: &Node, nodes: &[Node], offset: usize) {
        self.grow_to_hold(self.len + 1, nodes, offset);
        let mut i = hash_node(node) as usize & self.mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = index as u32;
        self.len += 1;
    }

    /// Pre-grows the slot array so `expected` total entries fit without a
    /// rehash (no-op if already large enough).
    pub(crate) fn reserve(&mut self, expected: usize, nodes: &[Node], offset: usize) {
        let needed = Self::capacity_for(expected);
        while self.slots.len() < needed {
            self.grow(nodes, offset);
        }
    }

    /// Doubles the slot array until `entries` fit under the load limit:
    /// the capacity inserting that many one by one reaches (which
    /// [`UniqueTable::reserve`]'s rounding can exceed). Never shrinks.
    pub(crate) fn grow_to_hold(&mut self, entries: usize, nodes: &[Node], offset: usize) {
        while entries * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow(nodes, offset);
        }
    }

    /// The global arena indices of the stored nodes, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .filter(|&&s| s != EMPTY)
            .map(|&s| s as usize)
    }

    fn grow(&mut self, nodes: &[Node], offset: usize) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap].into_boxed_slice());
        self.mask = new_cap - 1;
        for &s in old.iter() {
            if s == EMPTY {
                continue;
            }
            let mut i = hash_node(&nodes[s as usize - offset]) as usize & self.mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = s;
        }
    }

    /// Removes a node by contents (the reorder paths: the arena slot is
    /// about to be rewritten in place, or freed). Uses backward-shift
    /// compaction, so no tombstones ever exist; `nodes[index - offset]`
    /// must still hold `node` when this is called. Returns whether the node
    /// was present.
    pub(crate) fn remove(&mut self, node: &Node, nodes: &[Node], offset: usize) -> bool {
        let mut i = hash_node(node) as usize & self.mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return false;
            }
            if nodes[s as usize - offset] == *node {
                break;
            }
            i = (i + 1) & self.mask;
        }
        // Backward shift: walk the cluster after the vacated slot and pull
        // back any entry whose ideal position lies at or before the hole
        // (in circular probe distance), preserving every probe chain.
        self.slots[i] = EMPTY;
        self.len -= 1;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let s = self.slots[j];
            if s == EMPTY {
                return true;
            }
            let ideal = hash_node(&nodes[s as usize - offset]) as usize & self.mask;
            // Distance from the entry's ideal slot to where it sits must
            // not shrink past the hole, or its probe chain would break.
            if (j.wrapping_sub(ideal) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                self.slots[i] = s;
                self.slots[j] = EMPTY;
                i = j;
            }
        }
    }

    /// Empties the table, keeping its allocation (the gc rebuild path and
    /// the start of a reorder run).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }
}

/// Default [`OpCache`] capacity for standalone managers (slots; must be a
/// power of two). Engines size the cache for the workload via
/// `Manager::set_op_cache_capacity`; 16Ki slots (~384 KiB) is enough for
/// the unit-test-sized circuits a bare `Manager::new` typically serves.
pub(crate) const DEFAULT_OP_CACHE_CAPACITY: usize = 1 << 14;

/// Starting operation-cache capacity of a delta manager (slots; a power of
/// two), and the floor an analysis engine sizes any manager's cache to:
/// 256Ki slots, 6 MiB. A thaw allocates its cache once, at this size, or
/// takes over the slot array a dropped manager of the same cache size left
/// behind.
pub const DELTA_OP_CACHE_CAPACITY: usize = 1 << 18;

/// One operation-cache slot: the standard-triple key, the memoised result,
/// and the generation stamp that says whether the entry is current.
#[derive(Debug, Clone, Copy)]
struct OpSlot {
    key: OpKey,
    value: NodeId,
    stamp: u32,
}

/// Hard ceiling for [`OpCache::maybe_grow`]: 4Mi slots (~100 MiB). Past
/// this point the cache stops tracking the arena and collisions are
/// accepted — bounded memory beats a perfect memo on workloads this size.
pub(crate) const MAX_ADAPTIVE_SLOTS: usize = 1 << 22;

/// The memoisation cache for `ite`/`restrict`/`compose`/quantification:
/// direct-mapped, lossy, adaptively sized.
///
/// Each key hashes to exactly one slot; insertion overwrites whatever lives
/// there. That makes probes allocation-free (no rehash pauses
/// mid-recursion) and clearing O(1): entries carry a generation stamp, and
/// [`OpCache::clear`] just advances the current generation. A stale or
/// overwritten entry only ever costs recomputation — the recursion rebuilds
/// the same canonical edge — so capacity is a pure speed/memory dial with
/// no semantic content.
///
/// The dial is not free to leave low, though: apply-style recursions rely
/// on memoisation for their polynomial bound, and a cache much smaller
/// than the live node table thrashes into super-linear recompute. So the
/// kernel calls [`OpCache::maybe_grow`] as the arena grows, doubling the
/// cache until it covers the node count (CUDD's sizing policy), capped at
/// [`MAX_ADAPTIVE_SLOTS`].
#[derive(Debug, Clone)]
pub(crate) struct OpCache {
    slots: Box<[OpSlot]>,
    mask: usize,
    /// Entries are valid iff their stamp equals this.
    stamp: u32,
}

/// Hash of an [`OpKey`], folding the variant tag in so e.g.
/// `Restrict(f, v, ..)` and `Compose(f, v, ..)` with equal fields do not
/// collide structurally.
#[inline]
fn hash_key(key: &OpKey) -> u64 {
    match *key {
        OpKey::Ite(f, g, h) => mix(((f.0 as u64) << 32) | g.0 as u64, h.0 as u64),
        OpKey::Restrict(f, v, value) => mix(
            0x9e37_79b9_0000_0001 ^ ((f.0 as u64) << 32) | v as u64,
            value as u64 + 2,
        ),
        OpKey::Compose(f, v, g) => mix(
            0x9e37_79b9_0000_0002 ^ ((f.0 as u64) << 32) | v as u64,
            g.0 as u64,
        ),
        OpKey::Exists(f, vars) => mix(0x9e37_79b9_0000_0003 ^ f.0 as u64, vars),
        OpKey::Forall(f, vars) => mix(0x9e37_79b9_0000_0004 ^ f.0 as u64, vars),
    }
}

/// The process-wide spare slot array a dropped [`OpCache`] of the size a
/// thaw asks for returns to.
static SPARE: Spare = Spare::new(DELTA_OP_CACHE_CAPACITY);

/// A parked op-cache slot array and the stamp its entries were written
/// under.
type Parked = (Box<[OpSlot]>, u32);

/// At most one parked op-cache slot array, of one parkable capacity. One
/// per process, not one per thread: a server's handler and a client in the
/// same process would otherwise each pin a spare.
struct Spare {
    /// The only capacity parked: an array of any other size is freed at
    /// drop, so a build's outgrown cache never lingers as a spare no thaw
    /// can take.
    parkable: usize,
    parked: Mutex<Option<Parked>>,
}

impl Spare {
    const fn new(parkable: usize) -> Spare {
        Spare {
            parkable,
            parked: Mutex::new(None),
        }
    }

    fn slot(&self) -> MutexGuard<'_, Option<Parked>> {
        // The critical sections only move an `Option`; a poisoned lock
        // still holds a consistent value.
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty cache of exactly `capacity` slots (a power of two): the
    /// spare, cleared by a stamp bump, if it has that capacity; otherwise a
    /// fresh array, allocated after the mismatched spare is freed.
    fn cache(&self, capacity: usize) -> OpCache {
        let spare = self.slot().take();
        match spare {
            Some((slots, stamp)) if slots.len() == capacity => {
                let mut cache = OpCache {
                    slots,
                    mask: capacity - 1,
                    stamp,
                };
                cache.clear();
                cache
            }
            spare => {
                drop(spare);
                OpCache::fresh(capacity)
            }
        }
    }

    /// Takes `cache`'s slot array (leaving it empty) and parks it as the
    /// spare if it has the parkable capacity, freeing any earlier spare
    /// outside the lock. An array of any other capacity is freed, and the
    /// spare stays as it was.
    fn recycle(&self, cache: &mut OpCache) {
        let slots = std::mem::take(&mut cache.slots);
        if slots.len() == self.parkable {
            let earlier = self.slot().replace((slots, cache.stamp));
            drop(earlier);
        }
    }
}

impl Drop for OpCache {
    fn drop(&mut self) {
        SPARE.recycle(self);
    }
}

impl OpCache {
    /// A cache with `capacity` slots, rounded up to a power of two (floor
    /// 1024 — below that the array is smaller than the stack of one deep
    /// `ite` recursion and collisions dominate). Takes over the
    /// process-wide spare when its capacity matches exactly.
    pub(crate) fn with_capacity(capacity: usize) -> OpCache {
        SPARE.cache(capacity.next_power_of_two().max(1024))
    }

    /// A newly allocated cache of `capacity` slots, every one stale.
    fn fresh(capacity: usize) -> OpCache {
        OpCache {
            slots: vec![
                OpSlot {
                    key: OpKey::Ite(NodeId::TRUE, NodeId::TRUE, NodeId::TRUE),
                    value: NodeId::TRUE,
                    stamp: 0,
                };
                capacity
            ]
            .into_boxed_slice(),
            mask: capacity - 1,
            stamp: 1,
        }
    }

    /// Total slots (fixed for the cache's lifetime).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn get(&self, key: &OpKey) -> Option<NodeId> {
        let slot = &self.slots[hash_key(key) as usize & self.mask];
        (slot.stamp == self.stamp && slot.key == *key).then_some(slot.value)
    }

    pub(crate) fn insert(&mut self, key: OpKey, value: NodeId) {
        let stamp = self.stamp;
        let slot = &mut self.slots[hash_key(&key) as usize & self.mask];
        *slot = OpSlot { key, value, stamp };
    }

    /// Grows the cache to cover `nodes` arena slots, doubling to the next
    /// power of two ≥ `nodes` (capped at [`MAX_ADAPTIVE_SLOTS`]; never
    /// shrinks). Growth replaces the slot array, dropping current entries —
    /// the recursions in flight refill it, and results are unaffected
    /// either way. Called from the node-allocation path, so the cache
    /// tracks the working set without any per-op bookkeeping: the check is
    /// two integer compares on the hot path and the doubling happens at
    /// most `log2(MAX_ADAPTIVE_SLOTS)` times per manager lifetime.
    pub(crate) fn maybe_grow(&mut self, nodes: usize) {
        if nodes > self.capacity() && self.capacity() < MAX_ADAPTIVE_SLOTS {
            // Clamp before rounding up: `next_power_of_two` overflows near
            // `usize::MAX`, and the cap is itself a power of two.
            let target = nodes.min(MAX_ADAPTIVE_SLOTS).next_power_of_two();
            // The outgrown array is freed before the larger one is
            // allocated, not parked: the manager never shrinks back to it.
            drop(std::mem::take(&mut self.slots));
            *self = OpCache::with_capacity(target);
        }
    }

    /// Invalidates every entry in O(1) by advancing the generation stamp.
    /// (On the — practically unreachable — `u32` stamp wrap, falls back to
    /// a linear sweep so stale stamps can never alias a future generation.)
    pub(crate) fn clear(&mut self) {
        if self.stamp == u32::MAX {
            for slot in self.slots.iter_mut() {
                slot.stamp = 0;
            }
            self.stamp = 1;
        } else {
            self.stamp += 1;
        }
    }
}

/// A small open-addressing scratch map from raw `u32` edge words to values:
/// the per-call memo of the model-counting traversals. Same probing scheme
/// as [`UniqueTable`], but it owns its keys (edges, not arena indices) and
/// never deletes.
#[derive(Debug)]
pub(crate) struct CompactMap<V> {
    keys: Box<[u32]>,
    vals: Box<[V]>,
    mask: usize,
    len: usize,
}

impl<V: Copy + Default> CompactMap<V> {
    pub(crate) fn new() -> CompactMap<V> {
        let capacity = 64;
        CompactMap {
            keys: vec![EMPTY; capacity].into_boxed_slice(),
            vals: vec![V::default(); capacity].into_boxed_slice(),
            mask: capacity - 1,
            len: 0,
        }
    }

    #[inline]
    fn hash(key: u32) -> usize {
        // Multiplicative scatter; the shift keeps high bits in play after
        // masking.
        (key.wrapping_mul(0x9e37_79b9) >> 8) as usize
    }

    pub(crate) fn get(&self, key: u32) -> Option<V> {
        debug_assert_ne!(key, EMPTY);
        let mut i = Self::hash(key) & self.mask;
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return None;
            }
            if k == key {
                return Some(self.vals[i]);
            }
            i = (i + 1) & self.mask;
        }
    }

    pub(crate) fn insert(&mut self, key: u32, value: V) {
        debug_assert_ne!(key, EMPTY);
        if (self.len + 1) * LOAD_DEN > self.keys.len() * LOAD_NUM {
            self.grow();
        }
        let mut i = Self::hash(key) & self.mask;
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = value;
                self.len += 1;
                return;
            }
            if k == key {
                self.vals[i] = value;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap].into_boxed_slice());
        let old_vals = std::mem::replace(
            &mut self.vals,
            vec![V::default(); new_cap].into_boxed_slice(),
        );
        self.mask = new_cap - 1;
        for (&k, &v) in old_keys.iter().zip(old_vals.iter()) {
            if k == EMPTY {
                continue;
            }
            let mut i = Self::hash(k) & self.mask;
            while self.keys[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

/// Slots a [`TupleMemo`] starts every call with, and shrinks back to after
/// one; its key arena keeps at most [`TUPLE_ARENA_FLOOR`] operands between
/// calls. A 1Ki-slot floor, which spares mid-sized calls a regrowth,
/// kept 36 KiB per manager and raised perfbench `models-sampled`
/// `peak_heap_mib` above what the fold it replaced read.
const TUPLE_SLOT_FLOOR: usize = 1 << 8;
const TUPLE_ARENA_FLOOR: usize = 1 << 10;

/// One [`TupleMemo`] slot: where the key's operands sit in the arena, the
/// key's hash, and the memoised result. Occupied iff `stamp` is current.
#[derive(Debug, Clone, Copy)]
struct TupleSlot {
    stamp: u32,
    hash: u32,
    start: u32,
    len: u32,
    value: NodeId,
}

const VACANT_TUPLE: TupleSlot = TupleSlot {
    stamp: 0,
    hash: 0,
    start: 0,
    len: 0,
    value: NodeId::TRUE,
};

/// The exact memo of one `Manager::or_many` call: keyed by the full
/// normalised operand tuple, never by a hash alone. Keys live back to back
/// in one flat arena; an open-addressing, linear-probe slot array indexes
/// them. A call opens with [`TupleMemo::begin`] (a stamp bump clears every
/// slot) and closes with [`TupleMemo::end`], which shrinks both arrays back
/// to a small floor, so no manager holds the largest union's memo between
/// calls. `stack` is the recursion's operand scratch: each step's tuple
/// and its two cofactor tuples are ranges of it.
#[derive(Debug, Default)]
pub(crate) struct TupleMemo {
    arena: Vec<NodeId>,
    slots: Box<[TupleSlot]>,
    len: usize,
    stamp: u32,
    pub(crate) stack: Vec<NodeId>,
}

impl TupleMemo {
    /// The hash of the key `stack[start..end]`.
    #[inline]
    pub(crate) fn hash(&self, start: usize, end: usize) -> u32 {
        let key = &self.stack[start..end];
        key.chunks(2).fold(key.len() as u64, |h, pair| {
            let lo = pair.get(1).map_or(u32::MAX, |n| n.0);
            mix(h, ((pair[0].0 as u64) << 32) | lo as u64)
        }) as u32
    }

    /// Starts a call with every slot vacant.
    pub(crate) fn begin(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![VACANT_TUPLE; TUPLE_SLOT_FLOOR].into_boxed_slice();
        }
        if self.stamp == u32::MAX {
            self.slots.fill(VACANT_TUPLE);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// Ends a call: forgets every key and gives back what the call grew.
    pub(crate) fn end(&mut self) {
        self.len = 0;
        self.arena.clear();
        self.arena.shrink_to(TUPLE_ARENA_FLOOR);
        self.stack.clear();
        self.stack.shrink_to(TUPLE_ARENA_FLOOR);
        if self.slots.len() > TUPLE_SLOT_FLOOR {
            self.slots = Box::default();
            self.stamp = 0;
        }
    }

    /// The result memoised for the key `stack[start..end]` (whose hash is
    /// `hash`), if this call stored one.
    pub(crate) fn get(&self, start: usize, end: usize, hash: u32) -> Option<NodeId> {
        let key = &self.stack[start..end];
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s.stamp != self.stamp {
                return None;
            }
            if s.hash == hash
                && s.len as usize == key.len()
                && self.arena[s.start as usize..][..key.len()] == *key
            {
                return Some(s.value);
            }
            i = (i + 1) & mask;
        }
    }

    /// Memoises `value` for the key `stack[start..end]`, which this call
    /// has not stored yet.
    pub(crate) fn insert(&mut self, start: usize, end: usize, hash: u32, value: NodeId) {
        if (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow();
        }
        let slot = TupleSlot {
            stamp: self.stamp,
            hash,
            start: self.arena.len() as u32,
            len: (end - start) as u32,
            value,
        };
        self.arena.extend_from_slice(&self.stack[start..end]);
        self.place(slot);
        self.len += 1;
    }

    fn place(&mut self, slot: TupleSlot) {
        let mask = self.slots.len() - 1;
        let mut i = slot.hash as usize & mask;
        while self.slots[i].stamp == self.stamp {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            vec![VACANT_TUPLE; new_cap].into_boxed_slice(),
        );
        let stamp = std::mem::replace(&mut self.stamp, 1);
        for s in old.iter().filter(|s| s.stamp == stamp) {
            self.place(TupleSlot { stamp: 1, ..*s });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(var: u32, lo: u32, hi: u32) -> Node {
        Node {
            var,
            lo: NodeId(lo),
            hi: NodeId(hi),
        }
    }

    /// A toy arena + table pair: nodes are stored at consecutive indices
    /// starting at 1 (slot 0 plays the terminal, as in the manager).
    fn build(arena: &mut Vec<Node>, table: &mut UniqueTable, n: Node) -> usize {
        let index = arena.len();
        arena.push(n);
        table.insert(index, &n, arena, 0);
        index
    }

    #[test]
    fn insert_then_get_roundtrips() {
        let mut arena = vec![node(u32::MAX, 0, 0)];
        let mut table = UniqueTable::with_capacity(4);
        let mut indices = Vec::new();
        for v in 0..100u32 {
            indices.push(build(&mut arena, &mut table, node(v, 1, v * 2 + 4)));
        }
        assert_eq!(table.len(), 100);
        for (v, &i) in indices.iter().enumerate() {
            let v = v as u32;
            assert_eq!(
                table.get(&node(v, 1, v * 2 + 4), &arena, 0),
                Some(NodeId::from_index(i))
            );
        }
        assert_eq!(table.get(&node(0, 1, 999), &arena, 0), None);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut arena = vec![node(u32::MAX, 0, 0)];
        let mut table = UniqueTable::with_capacity(0);
        let start_cap = table.capacity();
        for v in 0..1000u32 {
            build(&mut arena, &mut table, node(v, 0, 2));
        }
        assert!(table.capacity() > start_cap, "table must have grown");
        assert!(
            table.len() * LOAD_DEN <= table.capacity() * LOAD_NUM,
            "load factor bound violated"
        );
        for v in 0..1000u32 {
            assert!(table.get(&node(v, 0, 2), &arena, 0).is_some());
        }
    }

    #[test]
    fn reserve_presizes_without_losing_entries() {
        let mut arena = vec![node(u32::MAX, 0, 0)];
        let mut table = UniqueTable::with_capacity(0);
        build(&mut arena, &mut table, node(7, 0, 2));
        table.reserve(10_000, &arena, 0);
        let cap = table.capacity();
        assert!(cap >= UniqueTable::capacity_for(10_000));
        assert!(table.get(&node(7, 0, 2), &arena, 0).is_some());
        for v in 0..9_000u32 {
            build(&mut arena, &mut table, node(v, 0, 4));
        }
        assert_eq!(table.capacity(), cap, "reserve killed the rehash storm");
    }

    #[test]
    fn remove_backward_shift_keeps_probe_chains() {
        // Insert enough colliding-ish entries that clusters form, remove
        // half in an arbitrary order, and verify every survivor stays
        // findable after each removal — the property backward-shift exists
        // to maintain.
        let mut arena = vec![node(u32::MAX, 0, 0)];
        let mut table = UniqueTable::with_capacity(64);
        for v in 0..64u32 {
            build(&mut arena, &mut table, node(v % 8, v * 2, 2));
        }
        let mut removed = std::collections::HashSet::new();
        for v in (0..64u32).step_by(2) {
            let n = node(v % 8, v * 2, 2);
            assert!(table.remove(&n, &arena, 0), "entry {v} vanished early");
            removed.insert(v);
            for u in 0..64u32 {
                let m = node(u % 8, u * 2, 2);
                let found = table.get(&m, &arena, 0).is_some();
                assert_eq!(found, !removed.contains(&u), "probe chain broken at {u}");
            }
        }
        assert_eq!(table.len(), 32);
        assert!(!table.remove(&node(0, 0, 2), &arena, 0), "double remove");
    }

    #[test]
    fn delta_offset_resolves_against_the_delta_slice() {
        // A delta table stores global indices but owns only the tail arena.
        let base_len = 10;
        let delta: Vec<Node> = (0..5).map(|v| node(v, 1, 2 * v + 4)).collect();
        let mut table = UniqueTable::with_capacity(8);
        for (i, n) in delta.iter().enumerate() {
            table.insert(base_len + i, n, &delta, base_len);
        }
        for (i, n) in delta.iter().enumerate() {
            assert_eq!(
                table.get(n, &delta, base_len),
                Some(NodeId::from_index(base_len + i))
            );
        }
    }

    #[test]
    fn op_cache_hits_and_overwrites() {
        let mut cache = OpCache::with_capacity(1024);
        let k1 = OpKey::Ite(NodeId(2), NodeId(4), NodeId(6));
        assert_eq!(cache.get(&k1), None);
        cache.insert(k1, NodeId(8));
        assert_eq!(cache.get(&k1), Some(NodeId(8)));
        // Overwriting the same key replaces the value.
        cache.insert(k1, NodeId(10));
        assert_eq!(cache.get(&k1), Some(NodeId(10)));
    }

    #[test]
    fn op_cache_clear_is_total() {
        let mut cache = OpCache::with_capacity(1024);
        for i in 0..500u32 {
            cache.insert(OpKey::Ite(NodeId(i * 2), NodeId(4), NodeId(6)), NodeId(8));
        }
        cache.clear();
        for i in 0..500u32 {
            assert_eq!(
                cache.get(&OpKey::Ite(NodeId(i * 2), NodeId(4), NodeId(6))),
                None,
                "stale entry survived clear"
            );
        }
        // The cache still works after a clear.
        let k = OpKey::Restrict(NodeId(2), 3, true);
        cache.insert(k, NodeId(12));
        assert_eq!(cache.get(&k), Some(NodeId(12)));
    }

    #[test]
    fn op_cache_capacity_is_a_pow2_with_floor() {
        assert_eq!(OpCache::with_capacity(0).capacity(), 1024);
        assert_eq!(OpCache::with_capacity(1025).capacity(), 2048);
        assert_eq!(OpCache::with_capacity(1 << 16).capacity(), 1 << 16);
    }

    #[test]
    fn op_cache_grows_with_the_arena_and_caps() {
        let mut cache = OpCache::with_capacity(1024);
        cache.maybe_grow(512);
        assert_eq!(cache.capacity(), 1024, "covered: no growth");
        cache.maybe_grow(1025);
        assert_eq!(cache.capacity(), 2048, "doubles past the arena");
        cache.maybe_grow(100_000);
        assert_eq!(cache.capacity(), 1 << 17, "jumps straight to cover");
        cache.maybe_grow(usize::MAX);
        assert_eq!(cache.capacity(), MAX_ADAPTIVE_SLOTS, "hard cap");
        cache.maybe_grow(usize::MAX);
        assert_eq!(cache.capacity(), MAX_ADAPTIVE_SLOTS, "stays capped");
        // Growth drops entries (lossy: only ever costs recomputation).
        let k = OpKey::Exists(NodeId(2), 7);
        cache.insert(k, NodeId(10));
        assert_eq!(cache.get(&k), Some(NodeId(10)));
    }

    /// Keys spread over many slots of a 1024-slot cache.
    fn spread_keys() -> impl Iterator<Item = OpKey> {
        (0..500u32).map(|i| OpKey::Ite(NodeId(i * 2), NodeId(4), NodeId(6)))
    }

    // The recycle tests use a local `Spare`: the process-wide one is shared
    // by every test running in parallel.

    #[test]
    fn a_recycled_array_of_the_same_capacity_is_reused_and_reads_empty() {
        let spare = Spare::new(1024);
        let mut cache = spare.cache(1024);
        for key in spread_keys() {
            cache.insert(key, NodeId(8));
        }
        let array = cache.slots.as_ptr();
        spare.recycle(&mut cache);
        assert_eq!(cache.capacity(), 0, "recycling empties the cache");
        let reused = spare.cache(1024);
        assert_eq!(reused.slots.as_ptr(), array, "same allocation");
        assert!(spare.slot().is_none(), "the spare was taken");
        for key in spread_keys() {
            assert_eq!(reused.get(&key), None, "entry survived the recycle");
        }
    }

    #[test]
    fn a_spare_of_another_capacity_is_dropped_for_a_fresh_array() {
        let spare = Spare::new(1024);
        let mut small = spare.cache(1024);
        spare.recycle(&mut small);
        let large = spare.cache(2048);
        assert_eq!(large.capacity(), 2048);
        assert!(spare.slot().is_none(), "the mismatched spare was freed");
        assert!(large.slots.iter().all(|slot| slot.stamp == 0));
        assert_eq!(large.stamp, 1, "a fresh array starts a fresh stamp");
    }

    #[test]
    fn only_an_array_of_the_parkable_capacity_is_parked() {
        let spare = Spare::new(1024);
        let mut parkable = spare.cache(1024);
        let array = parkable.slots.as_ptr();
        spare.recycle(&mut parkable);
        let mut other = OpCache::fresh(2048);
        spare.recycle(&mut other);
        assert_eq!(other.capacity(), 0, "recycling empties the cache");
        let reused = spare.cache(1024);
        assert_eq!(reused.slots.as_ptr(), array, "the parked spare was kept");
        let mut other = OpCache::fresh(2048);
        spare.recycle(&mut other);
        assert!(
            spare.slot().is_none(),
            "an array of another capacity is freed"
        );
    }

    #[test]
    fn a_recycled_cache_at_the_last_stamp_wraps_and_invalidates_every_slot() {
        let spare = Spare::new(1024);
        let mut cache = spare.cache(1024);
        cache.stamp = u32::MAX;
        for key in spread_keys() {
            cache.insert(key, NodeId(8));
        }
        spare.recycle(&mut cache);
        let mut reused = spare.cache(1024);
        assert_eq!(reused.stamp, 1, "clear() took the wrap path");
        assert!(reused.slots.iter().all(|slot| slot.stamp == 0));
        for key in spread_keys() {
            assert_eq!(reused.get(&key), None, "entry survived the wrap");
        }
        let k = OpKey::Restrict(NodeId(2), 3, true);
        reused.insert(k, NodeId(12));
        assert_eq!(reused.get(&k), Some(NodeId(12)));
    }

    #[test]
    fn op_cache_distinguishes_variants() {
        // Same field words under different variants must not alias.
        let mut cache = OpCache::with_capacity(1 << 12);
        let restrict = OpKey::Restrict(NodeId(2), 7, false);
        let compose = OpKey::Compose(NodeId(2), 7, NodeId(0));
        let exists = OpKey::Exists(NodeId(2), 7);
        let forall = OpKey::Forall(NodeId(2), 7);
        cache.insert(restrict, NodeId(2));
        cache.insert(compose, NodeId(4));
        cache.insert(exists, NodeId(6));
        cache.insert(forall, NodeId(8));
        // Direct-mapped: a later insert may have evicted an earlier one on
        // a slot collision, but a surviving entry must carry its own value.
        for (key, value) in [
            (restrict, NodeId(2)),
            (compose, NodeId(4)),
            (exists, NodeId(6)),
            (forall, NodeId(8)),
        ] {
            if let Some(v) = cache.get(&key) {
                assert_eq!(v, value);
            }
        }
        // The last insert is always resident.
        assert_eq!(cache.get(&forall), Some(NodeId(8)));
    }

    #[test]
    fn compact_map_inserts_gets_and_grows() {
        let mut map: CompactMap<u64> = CompactMap::new();
        for k in 0..10_000u32 {
            map.insert(k * 2, k as u64 + 7);
        }
        for k in 0..10_000u32 {
            assert_eq!(map.get(k * 2), Some(k as u64 + 7));
        }
        assert_eq!(map.get(20_001), None);
        map.insert(4, 99);
        assert_eq!(map.get(4), Some(99), "insert must overwrite");
    }
}
