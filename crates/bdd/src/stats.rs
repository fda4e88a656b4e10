//! Manager observability: unique-table and operation-cache counters.
//!
//! Every [`Manager`](crate::Manager) carries a [`ManagerStats`] block that the
//! hot paths update as they run. The counters answer the questions that matter
//! when tuning a Difference Propagation sweep: how often the unique table
//! deduplicates a node, how well each operation's memoisation cache performs,
//! how many collections ran, and how large the node table ever grew.
//!
//! # Counter lifetimes
//!
//! Every counter is cumulative over the manager's lifetime; nothing resets
//! one. That includes the op-cache counters (`stats[OpKind::Xor]`,
//! [`ManagerStats::op_cumulative_total`]): a gc, a sift or an explicit
//! clear drops the cache's *entries*, never its tallies, so lifetime work
//! comparisons (e.g. "collapsing cut op-cache traffic by 30%") read one
//! counter instead of reconstructing it around collection boundaries.

use std::fmt;
use std::ops::{Index, IndexMut};

/// The memoised operation families tracked by [`ManagerStats`].
///
/// Binary `apply` is split by connective so asymmetries show up (Difference
/// Propagation is XOR-heavy; a cold XOR cache and a warm AND cache are
/// different problems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `apply` with [`BinOp::And`](crate::BinOp::And).
    And,
    /// `apply` with [`BinOp::Or`](crate::BinOp::Or).
    Or,
    /// `apply` with [`BinOp::Xor`](crate::BinOp::Xor).
    Xor,
    /// If-then-else.
    Ite,
    /// Single-variable cofactor.
    Restrict,
    /// Functional composition.
    Compose,
    /// Existential quantification.
    Exists,
    /// Universal quantification.
    Forall,
}

impl OpKind {
    /// All tracked operation families, in display order. (Negation is not
    /// one: with complement edges `not()` is a pointer-bit flip that touches
    /// no cache.)
    pub const ALL: [OpKind; 8] = [
        OpKind::And,
        OpKind::Or,
        OpKind::Xor,
        OpKind::Ite,
        OpKind::Restrict,
        OpKind::Compose,
        OpKind::Exists,
        OpKind::Forall,
    ];

    fn name(self) -> &'static str {
        match self {
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Ite => "ite",
            OpKind::Restrict => "restrict",
            OpKind::Compose => "compose",
            OpKind::Exists => "exists",
            OpKind::Forall => "forall",
        }
    }

    fn index(self) -> usize {
        match self {
            OpKind::And => 0,
            OpKind::Or => 1,
            OpKind::Xor => 2,
            OpKind::Ite => 3,
            OpKind::Restrict => 4,
            OpKind::Compose => 5,
            OpKind::Exists => 6,
            OpKind::Forall => 7,
        }
    }
}

/// Hit/miss tallies for one cache (or one operation family's slice of the
/// op cache).
///
/// `lookups`, `hits` and `misses` are counted independently at the probe
/// sites, so `hits + misses == lookups` is a checkable invariant rather than
/// a definition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Probes against the cache.
    pub lookups: u64,
    /// Probes that found an entry.
    pub hits: u64,
    /// Probes that found nothing (an entry is inserted afterwards).
    pub misses: u64,
}

impl CacheCounters {
    /// Fraction of lookups that hit, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Component-wise sum.
    pub fn merged(self, other: CacheCounters) -> CacheCounters {
        CacheCounters {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }

    pub(crate) fn hit(&mut self) {
        self.lookups += 1;
        self.hits += 1;
    }

    pub(crate) fn miss(&mut self) {
        self.lookups += 1;
        self.misses += 1;
    }
}

/// Counters maintained by a [`Manager`](crate::Manager); read them through
/// [`Manager::stats`](crate::Manager::stats).
///
/// Every counter is cumulative; see the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManagerStats {
    /// Unique-table (hash-consing) probes made by `mk`. Cumulative.
    ///
    /// With a frozen base (see [`FrozenManager`](crate::FrozenManager)) each
    /// probe resolves against exactly one of the two tables, so
    /// `unique.lookups == base_hits + delta_lookups` is an invariant rather
    /// than double counting — the legacy sum stays meaningful.
    pub unique: CacheCounters,
    /// Probes resolved by the frozen base table (always a hit: the base is
    /// immutable, so a probe either finds the node there or falls through to
    /// the delta table). Zero for managers without a base. Cumulative.
    pub base_hits: u64,
    /// Probes that reached the private delta table (hit or miss). For a
    /// manager without a base this equals `unique.lookups`. Cumulative.
    pub delta_lookups: u64,
    /// Nodes owned by the frozen base this manager extends (terminals
    /// included); 0 for a private manager. Needed to interpret `peak_nodes`:
    /// a delta manager starts at `base_nodes`, so its allocation invariant is
    /// `peak_nodes ≤ max(base_nodes, 1) + unique.misses`.
    pub base_nodes: usize,
    /// Per-family op-cache probes, read through `stats[kind]`. Cumulative:
    /// clearing the cache keeps them.
    op: [CacheCounters; 8],
    /// Completed [`Manager::gc`](crate::Manager::gc) runs. Cumulative.
    pub gc_runs: u64,
    /// Completed [`Manager::sift`](crate::Manager::sift) runs. Cumulative.
    pub sift_runs: u64,
    /// Adjacent level swaps the sift runs made: each walk step plus the
    /// return to the best level. Cumulative.
    pub sift_swaps: u64,
    /// Live nodes the sift runs removed (live size before minus after,
    /// summed over runs). Cumulative.
    pub sift_nodes_reclaimed: u64,
    /// Largest node-table length ever observed (terminals included).
    /// Cumulative; never shrinks, even across GC compactions.
    pub peak_nodes: usize,
    /// Memoised operation steps charged against the budget window. Unlike the
    /// manager's per-window tally (which `reset_budget_window` restarts), this
    /// one is cumulative over the manager's lifetime.
    pub op_steps: u64,
    /// Budget windows that tripped ([`BddError::BudgetExceeded`](crate::BddError)).
    /// Cumulative; a sticky trip counts once per window, not once per refusal.
    pub budget_trips: u64,
}

impl Index<OpKind> for ManagerStats {
    type Output = CacheCounters;

    fn index(&self, kind: OpKind) -> &CacheCounters {
        &self.op[kind.index()]
    }
}

impl IndexMut<OpKind> for ManagerStats {
    fn index_mut(&mut self, kind: OpKind) -> &mut CacheCounters {
        &mut self.op[kind.index()]
    }
}

impl ManagerStats {
    /// Cumulative op-cache counters summed over every operation family.
    pub fn op_cumulative_total(&self) -> CacheCounters {
        self.op
            .iter()
            .fold(CacheCounters::default(), |acc, &c| acc.merged(c))
    }

    /// Component-wise sum of two stats blocks (`peak_nodes` takes the max).
    ///
    /// Useful for aggregating per-shard managers into a sweep-level view.
    pub fn merged(&self, other: &ManagerStats) -> ManagerStats {
        let mut op = self.op;
        for (a, b) in op.iter_mut().zip(other.op.iter()) {
            *a = a.merged(*b);
        }
        ManagerStats {
            unique: self.unique.merged(other.unique),
            base_hits: self.base_hits + other.base_hits,
            delta_lookups: self.delta_lookups + other.delta_lookups,
            // Shards extending the same frozen base share its nodes; summing
            // would double-count a structure that exists once.
            base_nodes: self.base_nodes.max(other.base_nodes),
            op,
            gc_runs: self.gc_runs + other.gc_runs,
            sift_runs: self.sift_runs + other.sift_runs,
            sift_swaps: self.sift_swaps + other.sift_swaps,
            sift_nodes_reclaimed: self.sift_nodes_reclaimed + other.sift_nodes_reclaimed,
            peak_nodes: self.peak_nodes.max(other.peak_nodes),
            op_steps: self.op_steps + other.op_steps,
            budget_trips: self.budget_trips + other.budget_trips,
        }
    }
}

impl fmt::Display for ManagerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "unique: {} lookups ({} base hits, {} delta), {:.1}% hit | peak {} nodes | {} gc runs | {} op steps | {} budget trips",
            self.unique.lookups,
            self.base_hits,
            self.delta_lookups,
            100.0 * self.unique.hit_rate(),
            self.peak_nodes,
            self.gc_runs,
            self.op_steps,
            self.budget_trips
        )?;
        let op = self.op_cumulative_total();
        writeln!(
            f,
            "op cache: {} lookups lifetime, {:.1}% hit",
            op.lookups,
            100.0 * op.hit_rate()
        )?;
        for kind in OpKind::ALL {
            let c = self[kind];
            if c.lookups == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<8} {:>10} lookups  {:>10} hits  {:>10} misses  ({:.1}%)",
                kind.name(),
                c.lookups,
                c.hits,
                c.misses,
                100.0 * c.hit_rate()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = CacheCounters::default();
        c.hit();
        c.miss();
        c.hit();
        assert_eq!(c.lookups, 3);
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_of_empty_counters_is_zero() {
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn merged_sums_and_maxes() {
        let mut a = ManagerStats::default();
        let mut b = ManagerStats::default();
        a.unique.hit();
        a[OpKind::Xor].miss();
        a.peak_nodes = 10;
        a.gc_runs = 1;
        a.sift_runs = 1;
        a.sift_swaps = 40;
        a.sift_nodes_reclaimed = 30;
        a.op_steps = 100;
        a.budget_trips = 2;
        b.unique.miss();
        b[OpKind::Xor].hit();
        b.peak_nodes = 7;
        b.op_steps = 50;
        b.base_nodes = 5;
        b.sift_runs = 2;
        b.sift_swaps = 2;
        b.sift_nodes_reclaimed = 12;
        let m = a.merged(&b);
        assert_eq!(m.base_nodes, 5, "shared base is not double counted");
        assert_eq!(m.unique.lookups, 2);
        assert_eq!(m[OpKind::Xor].lookups, 2);
        assert_eq!(m[OpKind::Xor].hits, 1);
        assert_eq!(m.peak_nodes, 10);
        assert_eq!(m.gc_runs, 1);
        assert_eq!(m.sift_runs, 3);
        assert_eq!(m.sift_swaps, 42);
        assert_eq!(m.sift_nodes_reclaimed, 42);
        assert_eq!(m.op_steps, 150);
        assert_eq!(m.budget_trips, 2);
    }

    #[test]
    fn op_cumulative_total_sums_every_family() {
        let mut s = ManagerStats::default();
        s[OpKind::Xor].hit();
        s[OpKind::Xor].miss();
        s[OpKind::Ite].miss();
        assert_eq!(s.op_cumulative_total().lookups, 3);
        assert_eq!(s.op_cumulative_total().hits, 1);
        assert_eq!(s.merged(&s).op_cumulative_total().lookups, 6);
    }

    #[test]
    fn display_lists_active_ops_only() {
        let mut s = ManagerStats::default();
        s[OpKind::Ite].hit();
        let text = s.to_string();
        assert!(text.contains("ite"));
        assert!(!text.contains("restrict"));
    }
}
