//! Multiple stuck-at faults: several single stuck-at components present in
//! the circuit simultaneously.
//!
//! The multiple-fault model is where the single-fault assumption's blind
//! spots show up: two components can mask each other at every input vector,
//! leaving a fault pair *redundant under the multi-fault model* even though
//! each component alone is detectable. [`pair_multis`] enumerates the
//! all-pairs universe over a circuit's checkpoint faults and
//! [`sampled_multis`] draws seeded, deterministic samples of higher
//! multiplicities, so sweeps can measure how often that masking bites.

use std::fmt;
use std::sync::Arc;

use dp_netlist::{Circuit, NetId};

use crate::stuck::{checkpoint_faults, FaultSite, StuckAtFault};

/// A multiple stuck-at fault: every component site is pinned to its stuck
/// value at once.
///
/// Components are stored sorted by site (stem, branch sink/pin, polarity),
/// so two multis built from the same component set in any order compare and
/// hash equal. The component list is behind an [`Arc`], keeping the
/// containing [`crate::Fault`] cheap to clone across sweep workers.
///
/// # Examples
///
/// ```
/// use dp_faults::{checkpoint_faults, MultiStuckAt};
/// use dp_netlist::generators::c17;
///
/// let c = c17();
/// let faults = checkpoint_faults(&c);
/// let m = MultiStuckAt::new(vec![faults[0], faults[3]]);
/// assert_eq!(m.multiplicity(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultiStuckAt {
    components: Arc<[StuckAtFault]>,
}

/// Total order on component faults: by stem net, net sites before branch
/// sites of the same stem, then branch sink/pin, then stuck value.
fn site_key(f: &StuckAtFault) -> (usize, usize, usize, usize, bool) {
    match f.site {
        FaultSite::Net(n) => (n.index(), 0, 0, 0, f.value),
        FaultSite::Branch(b) => (b.stem.index(), 1, b.sink.index(), b.pin, f.value),
    }
}

impl MultiStuckAt {
    /// Builds a multiple fault from its components, normalising order.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or two components share a
    /// [`FaultSite`] — one site cannot be stuck at two values, and a
    /// duplicated component is a lower-multiplicity fault in disguise.
    pub fn new(mut components: Vec<StuckAtFault>) -> MultiStuckAt {
        assert!(!components.is_empty(), "a multiple fault needs components");
        components.sort_by_key(site_key);
        for w in components.windows(2) {
            assert_ne!(w[0].site, w[1].site, "multiple fault pins one site twice");
        }
        MultiStuckAt {
            components: components.into(),
        }
    }

    /// The component faults, in canonical order.
    pub fn components(&self) -> &[StuckAtFault] {
        &self.components
    }

    /// Number of simultaneous components.
    pub fn multiplicity(&self) -> usize {
        self.components.len()
    }

    /// The distinct stem nets the components corrupt, in canonical order.
    pub fn site_nets(&self) -> Vec<NetId> {
        let mut nets: Vec<NetId> = self.components.iter().map(|f| f.site.net()).collect();
        nets.dedup();
        nets
    }
}

impl fmt::Display for MultiStuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("multi[")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str("]")
    }
}

/// Every unordered pair of distinct-site checkpoint faults of `circuit`,
/// in checkpoint order (the double-fault universe of the inadmissibility
/// literature).
///
/// Pairs over the same site (the two polarities of one checkpoint) are
/// skipped — they are contradictory, not a double fault.
pub fn pair_multis(circuit: &Circuit) -> Vec<MultiStuckAt> {
    let base = checkpoint_faults(circuit);
    let mut out = Vec::new();
    for i in 0..base.len() {
        for j in i + 1..base.len() {
            if base[i].site == base[j].site {
                continue;
            }
            out.push(MultiStuckAt::new(vec![base[i], base[j]]));
        }
    }
    out
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, deterministic sample of `count` distinct multiplicity-`k`
/// stuck-at faults over the checkpoint universe.
///
/// Components are drawn from a splitmix64 stream keyed only by `seed`, so
/// the sample is invariant to thread count and scheduling. Draws that collide on a site or repeat an
/// already-sampled multi are skipped, so the result holds `count` distinct
/// faults whenever the universe is large enough (and every distinct fault
/// the stream reached otherwise).
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of distinct checkpoint
/// sites.
pub fn sampled_multis(circuit: &Circuit, k: usize, count: usize, seed: u64) -> Vec<MultiStuckAt> {
    let base = checkpoint_faults(circuit);
    let distinct_sites = {
        let mut sites: Vec<FaultSite> = base.iter().map(|f| f.site).collect();
        sites.dedup();
        sites.len()
    };
    assert!(k > 0, "multiplicity must be positive");
    assert!(
        k <= distinct_sites,
        "multiplicity {k} exceeds the {distinct_sites} checkpoint sites"
    );
    let mut out: Vec<MultiStuckAt> = Vec::new();
    let mut seen: std::collections::HashSet<MultiStuckAt> = std::collections::HashSet::new();
    // Each attempt consumes k stream values keyed by (attempt, t); cap the
    // stream so a tiny universe cannot loop forever once every distinct
    // multi is found.
    let max_attempts = (count as u64).saturating_mul(64).max(4096);
    for attempt in 0..max_attempts {
        if out.len() >= count {
            break;
        }
        let mut components: Vec<StuckAtFault> = Vec::with_capacity(k);
        for t in 0..k {
            let r = splitmix64(seed ^ (attempt.wrapping_mul(k as u64 + 1) + t as u64 + 1));
            let f = base[(r % base.len() as u64) as usize];
            components.push(f);
        }
        components.sort_by_key(site_key);
        if components.windows(2).any(|w| w[0].site == w[1].site) {
            continue;
        }
        let multi = MultiStuckAt::new(components);
        if seen.insert(multi.clone()) {
            out.push(multi);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_netlist::generators::{c17, full_adder};

    #[test]
    fn construction_is_order_invariant() {
        let c = c17();
        let base = checkpoint_faults(&c);
        let ab = MultiStuckAt::new(vec![base[0], base[5]]);
        let ba = MultiStuckAt::new(vec![base[5], base[0]]);
        assert_eq!(ab, ba);
        assert_eq!(ab.multiplicity(), 2);
    }

    #[test]
    #[should_panic(expected = "one site twice")]
    fn duplicate_sites_rejected() {
        let c = c17();
        let base = checkpoint_faults(&c);
        // base[0] and base[1] are the two polarities of the same site.
        MultiStuckAt::new(vec![base[0], base[1]]);
    }

    #[test]
    #[should_panic(expected = "needs components")]
    fn empty_multi_rejected() {
        MultiStuckAt::new(Vec::new());
    }

    #[test]
    fn pair_universe_counts() {
        // c17: 22 checkpoint faults over 11 sites. C(22,2) = 231 pairs,
        // minus the 11 same-site polarity pairs.
        let c = c17();
        let pairs = pair_multis(&c);
        assert_eq!(pairs.len(), 220);
        assert!(pairs.iter().all(|m| m.multiplicity() == 2));
    }

    #[test]
    fn display_is_tab_free_and_bracketed() {
        let c = full_adder();
        let base = checkpoint_faults(&c);
        let m = MultiStuckAt::new(vec![base[0], base[3]]);
        let s = m.to_string();
        assert!(s.starts_with("multi[") && s.ends_with(']'), "{s}");
        assert!(s.contains(" + "), "{s}");
        assert!(!s.contains('\t'), "golden TSV lines are tab-separated");
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let c = c17();
        let s1 = sampled_multis(&c, 3, 16, 1990);
        let s2 = sampled_multis(&c, 3, 16, 1990);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 16);
        let mut dedup = s1.clone();
        dedup.sort_by_key(|m| m.components().iter().map(site_key).collect::<Vec<_>>());
        dedup.dedup();
        assert_eq!(dedup.len(), s1.len(), "sample repeats a multi");
        assert!(s1.iter().all(|m| m.multiplicity() == 3));
        // A different seed draws a different sample.
        assert_ne!(s1, sampled_multis(&c, 3, 16, 7));
    }
}
