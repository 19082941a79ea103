//! Order statistics for noisy wall-clock samples.
//!
//! Interference from the host is additive and positive (a stall only
//! ever makes a repetition slower), so every gated timing here is a
//! *low* quantile over many short repetitions rather than a mean or a
//! median; README.md says which quantile each metric uses and why.

/// Quantile `q` in `[0, 1]` of `sorted` (ascending), linearly
/// interpolated between the two closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `samples` and returns its quantile `q`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    quantile_sorted(&sorted, q)
}

/// The 10th percentile: the estimator wherever a run holds at least a
/// dozen repetitions (kernel probes, fleet runs, warm generations).
pub fn p10(samples: &[f64]) -> f64 {
    quantile(samples, 0.10)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The minimum: for phases a run can afford only a handful of (cold
/// generations), and for the serve loops' per-batch floors.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Quantile `q` of a histogram given as `(lower, upper, count)` buckets
/// in ascending order, interpolating linearly inside the bucket that
/// holds the rank. Used to read a smooth percentile out of the serving
/// report's log-spaced latency histogram, whose own readout snaps to
/// bucket floors 12.5 % apart.
pub fn quantile_of_buckets(buckets: &[(f64, f64, u64)], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().map(|b| b.2).sum();
    if total == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for &(lo, hi, count) in buckets {
        let c = count as f64;
        if c > 0.0 && seen + c >= rank {
            return Some(lo + (hi - lo) * ((rank - seen) / c).clamp(0.0, 1.0));
        }
        seen += c;
    }
    buckets.last().map(|b| b.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(median(&xs), 3.0);
        assert!((p10(&xs) - 1.4).abs() < 1e-12);
        assert_eq!(min(&xs), 1.0);
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn low_quantiles_ignore_positive_outliers() {
        // A fifth of the repetitions hit a 50x stall; p10 and the
        // minimum do not move, the mean would.
        let mut xs: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 * 1e-3).collect();
        let clean = (p10(&xs), min(&xs));
        for x in xs.iter_mut().skip(80) {
            *x *= 50.0;
        }
        assert_eq!((p10(&xs), min(&xs)), clean);
    }

    #[test]
    fn bucket_quantile_is_continuous_inside_a_bucket() {
        let buckets = [(0.0, 10.0, 50), (10.0, 20.0, 50)];
        assert_eq!(quantile_of_buckets(&buckets, 0.25), Some(5.0));
        assert_eq!(quantile_of_buckets(&buckets, 0.5), Some(10.0));
        assert_eq!(quantile_of_buckets(&buckets, 0.75), Some(15.0));
        assert_eq!(quantile_of_buckets(&buckets, 1.0), Some(20.0));
        assert_eq!(quantile_of_buckets(&[(0.0, 1.0, 0)], 0.5), None);
    }
}
