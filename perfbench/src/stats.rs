//! Order statistics over timing samples.

/// The median; the mean of the two middle samples for an even count.
/// `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; `NaN` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The nearest-rank `p`-th percentile, reported only when at least ten
/// samples lie beyond it: with fewer, one outlier decides the value.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    (rank >= 1 && n.saturating_sub(rank) >= 10).then(|| s[rank - 1])
}

/// The fastest of a unit's repeats; `NaN` for none. Host slow-downs only
/// ever add time, and on a busy host a unit may run at full speed in only a
/// few of its repeats, so the minimum tracks the program rather than the
/// neighbours better than any higher quantile.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn best_is_the_minimum() {
        assert_eq!(best(&[5.0, 1.0, 3.0]), 1.0);
        assert!(best(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs[..99], 90.0), None, "only nine beyond p90");
        assert_eq!(percentile(&xs, 95.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
