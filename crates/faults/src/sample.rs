//! Layout-distance-weighted random sampling of bridging faults (paper §2.2).
//!
//! Not all NFBFs are equally likely: physically close wires bridge more
//! often. Lacking layouts, the paper estimates wire positions from structure
//! ([`dp_netlist::Placement`]), normalises each pair's Euclidean distance
//! `z` to the largest distance among the potentially detectable NFBFs, and
//! samples faults assuming `z` is exponentially distributed,
//! `f(z) = (1/θ)·e^(−z/θ)`, with θ adjusted so the sample has a workable
//! size (≈1000 faults in the paper).

use dp_netlist::{Circuit, Placement};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::bridging::BridgingFault;

/// Parameters for [`sample_nfbfs`].
#[derive(Debug, Clone, Copy)]
pub struct SampleConfig {
    /// Number of faults to draw (capped at the candidate count).
    pub count: usize,
    /// The exponential scale θ over normalised distance in `[0, 1]`.
    /// Smaller θ concentrates the sample on physically close pairs.
    pub theta: f64,
    /// RNG seed — samples are fully reproducible.
    pub seed: u64,
}

impl Default for SampleConfig {
    /// The paper's working point: ≈1000 faults, θ = 0.1.
    fn default() -> Self {
        SampleConfig {
            count: 1000,
            theta: 0.1,
            seed: 0x1990_0627, // DAC 1990
        }
    }
}

/// Draws a weighted random sample of bridging faults without replacement,
/// with selection weight `e^(−z/θ)` for normalised pair distance `z`.
///
/// Distances come from [`Placement::estimate`] and are normalised to the
/// largest distance among `candidates`, exactly as in the paper. If
/// `config.count >= candidates.len()` the whole set is returned (in
/// candidate order).
///
/// # Panics
///
/// Panics if `config.theta <= 0`.
///
/// # Examples
///
/// ```
/// use dp_faults::{enumerate_nfbfs, sample_nfbfs, BridgeKind, SampleConfig};
/// use dp_netlist::generators::alu74181;
///
/// let c = alu74181();
/// let all = enumerate_nfbfs(&c, BridgeKind::And);
/// let sample = sample_nfbfs(&c, &all, SampleConfig { count: 100, ..Default::default() });
/// assert_eq!(sample.len(), 100);
/// ```
pub fn sample_nfbfs(
    circuit: &Circuit,
    candidates: &[BridgingFault],
    config: SampleConfig,
) -> Vec<BridgingFault> {
    assert!(config.theta > 0.0, "theta must be positive");
    if config.count >= candidates.len() {
        return candidates.to_vec();
    }
    let placement = Placement::estimate(circuit);
    let distances: Vec<f64> = candidates
        .iter()
        .map(|f| placement.distance(f.a, f.b))
        .collect();
    let max = distances.iter().cloned().fold(0.0, f64::max);
    let norm = if max > 0.0 { max } else { 1.0 };
    // Weighted sampling without replacement via exponential jumps
    // (Efraimidis–Spirakis): key_i = u_i^(1/w_i); take the largest keys.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut keyed: Vec<(f64, usize)> = distances
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let z = d / norm;
            let w = (-z / config.theta).exp();
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            (u.ln() / w, i)
        })
        .collect();
    // Largest u^(1/w) ⇔ largest ln(u)/w (ln(u) < 0, dividing by small w
    // pushes keys towards −∞). `total_cmp` keeps the sort total even when a
    // degenerate weight (underflow to 0, coincident placements) produces an
    // infinite or NaN key — a panic here would take down a whole sweep.
    keyed.sort_by(|x, y| y.0.total_cmp(&x.0));
    let mut picked: Vec<usize> = keyed[..config.count].iter().map(|&(_, i)| i).collect();
    picked.sort_unstable();
    picked.into_iter().map(|i| candidates[i]).collect()
}

/// Suggests a θ for which the *effective* candidate mass
/// `Σ e^(−z_i/θ)` is close to `target` faults — the paper's "θ was adjusted
/// to facilitate fault sets of reasonable sizes".
///
/// Returns θ in `[1e-3, 10]`, found by bisection; callers feed it into
/// [`SampleConfig`].
pub fn tune_theta(circuit: &Circuit, candidates: &[BridgingFault], target: usize) -> f64 {
    let placement = Placement::estimate(circuit);
    let distances: Vec<f64> = candidates
        .iter()
        .map(|f| placement.distance(f.a, f.b))
        .collect();
    let max = distances.iter().cloned().fold(0.0, f64::max);
    let norm = if max > 0.0 { max } else { 1.0 };
    let mass = |theta: f64| -> f64 { distances.iter().map(|&d| (-(d / norm) / theta).exp()).sum() };
    let target = target as f64;
    let (mut lo, mut hi) = (1e-3, 10.0);
    if mass(hi) < target {
        return hi;
    }
    if mass(lo) > target {
        return lo;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mass(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridging::{enumerate_nfbfs, BridgeKind};
    use dp_netlist::generators::{alu74181, c17};

    #[test]
    fn sample_is_reproducible() {
        let c = alu74181();
        let all = enumerate_nfbfs(&c, BridgeKind::And);
        let cfg = SampleConfig {
            count: 50,
            ..Default::default()
        };
        let s1 = sample_nfbfs(&c, &all, cfg);
        let s2 = sample_nfbfs(&c, &all, cfg);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 50);
    }

    #[test]
    fn different_seeds_differ() {
        let c = alu74181();
        let all = enumerate_nfbfs(&c, BridgeKind::And);
        let s1 = sample_nfbfs(
            &c,
            &all,
            SampleConfig {
                count: 50,
                theta: 0.1,
                seed: 1,
            },
        );
        let s2 = sample_nfbfs(
            &c,
            &all,
            SampleConfig {
                count: 50,
                theta: 0.1,
                seed: 2,
            },
        );
        assert_ne!(s1, s2);
    }

    #[test]
    fn small_count_returns_subset_without_duplicates() {
        let c = alu74181();
        let all = enumerate_nfbfs(&c, BridgeKind::Or);
        let s = sample_nfbfs(
            &c,
            &all,
            SampleConfig {
                count: 30,
                theta: 0.2,
                seed: 7,
            },
        );
        let mut seen = std::collections::HashSet::new();
        for f in &s {
            assert!(all.contains(f));
            assert!(seen.insert(*f), "duplicate fault in sample");
        }
    }

    #[test]
    fn oversized_count_returns_everything() {
        let c = c17();
        let all = enumerate_nfbfs(&c, BridgeKind::And);
        let s = sample_nfbfs(
            &c,
            &all,
            SampleConfig {
                count: all.len() + 100,
                ..Default::default()
            },
        );
        assert_eq!(s, all);
    }

    #[test]
    fn small_theta_prefers_close_pairs() {
        let c = alu74181();
        let all = enumerate_nfbfs(&c, BridgeKind::And);
        let placement = dp_netlist::Placement::estimate(&c);
        let mean_dist = |faults: &[BridgingFault]| -> f64 {
            faults
                .iter()
                .map(|f| placement.distance(f.a, f.b))
                .sum::<f64>()
                / faults.len() as f64
        };
        let tight = sample_nfbfs(
            &c,
            &all,
            SampleConfig {
                count: 200,
                theta: 0.02,
                seed: 3,
            },
        );
        let loose = sample_nfbfs(
            &c,
            &all,
            SampleConfig {
                count: 200,
                theta: 5.0,
                seed: 3,
            },
        );
        assert!(
            mean_dist(&tight) < mean_dist(&loose),
            "tight {} vs loose {}",
            mean_dist(&tight),
            mean_dist(&loose)
        );
    }

    #[test]
    fn tune_theta_hits_target_mass() {
        let c = alu74181();
        let all = enumerate_nfbfs(&c, BridgeKind::And);
        let target = all.len() / 4;
        let theta = tune_theta(&c, &all, target);
        assert!(theta > 0.0);
        // Effective mass at the tuned theta is within 10% of target.
        let placement = dp_netlist::Placement::estimate(&c);
        let max = all
            .iter()
            .map(|f| placement.distance(f.a, f.b))
            .fold(0.0, f64::max);
        let mass: f64 = all
            .iter()
            .map(|f| (-(placement.distance(f.a, f.b) / max) / theta).exp())
            .sum();
        assert!((mass - target as f64).abs() < 0.1 * target as f64);
    }

    #[test]
    fn degenerate_theta_underflow_never_panics() {
        // θ small enough that every positive-distance weight e^(−z/θ)
        // underflows to 0.0, making the Efraimidis–Spirakis keys ln(u)/0 =
        // −∞ (and leaving coincident pairs, z = 0, at weight 1). The old
        // `partial_cmp().expect()` comparator panicked the moment such a key
        // met another; `total_cmp` must sort them and still return exactly
        // `count` distinct faults.
        let c = alu74181();
        let all = enumerate_nfbfs(&c, BridgeKind::And);
        let s = sample_nfbfs(
            &c,
            &all,
            SampleConfig {
                count: 40,
                theta: 1e-300,
                seed: 9,
            },
        );
        assert_eq!(s.len(), 40);
        let mut seen = std::collections::HashSet::new();
        for f in &s {
            assert!(seen.insert(*f), "duplicate fault in degenerate sample");
        }
    }

    #[test]
    #[should_panic(expected = "theta must be positive")]
    fn zero_theta_rejected() {
        let c = c17();
        let all = enumerate_nfbfs(&c, BridgeKind::And);
        sample_nfbfs(
            &c,
            &all,
            SampleConfig {
                count: 1,
                theta: 0.0,
                seed: 0,
            },
        );
    }
}
