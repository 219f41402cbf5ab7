//! Order statistics over measured samples.
//!
//! Percentiles use the workspace's inclusive nearest-rank convention
//! (`rn_trace::nearest_rank`): every reported value is one that was
//! actually measured. A percentile is only *supported* when at least ten
//! samples lie beyond it; a tail figure drawn from fewer is noise.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile of `samples` (nearest rank), or `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    rn_trace::nearest_rank(sorted.len(), p).map(|i| sorted[i])
}

/// Median (the lower median for an even count, as nearest rank gives it).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] of them above the
/// `p`-th percentile's rank.
pub fn supports(n: usize, p: f64) -> bool {
    match rn_trace::nearest_rank(n, p) {
        Some(i) => n - (i + 1) >= MIN_BEYOND,
        None => false,
    }
}

/// The `p`-th percentile when the sample supports it, else `None`.
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if supports(samples.len(), p) {
        percentile(samples, p)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(5.0)); // lower median
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 80.0), Some(4.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p50 of 20: rank 10, ten samples above.
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        // p99 needs 1000 samples: rank 990, ten above.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(!supports(0, 50.0));
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_percentile(&xs, 99.0), None);
        assert_eq!(supported_percentile(&xs, 98.0), Some(979.0));
    }
}
