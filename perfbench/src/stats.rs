//! Order statistics for the report.
//!
//! Percentiles use the nearest-rank definition: the p-th percentile of
//! `n` samples is the sample of 1-based rank `⌈p·n/100⌉` in sorted
//! order. A *tail* percentile is reported only when at least
//! [`MIN_BEYOND`] samples rank above it, so a p90 needs 100 samples.

/// Samples that must rank above a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n ≥ 1`
/// samples.
pub fn rank(n: usize, p: f64) -> usize {
    // `p * n / 100` rather than `p / 100 * n`: the product of two
    // integers is exact, so an exact rank never rounds up by one ulp.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Number of samples ranking strictly above the nearest-rank `p`-th
/// percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile of unsorted `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Tail percentile: `None` unless at least [`MIN_BEYOND`] samples rank
/// above it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        None
    } else {
        percentile(samples, p)
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the helpers must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&one_to(10), 90.0), Some(9.0));
        // ⌈0.5 · 5⌉ = 3: the median of an odd count is the middle sample.
        assert_eq!(median(&one_to(5)), Some(3.0));
        // ⌈0.5 · 4⌉ = 2: nearest rank never interpolates.
        assert_eq!(median(&one_to(4)), Some(2.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn exact_ranks_do_not_round_up() {
        for n in 1..=1000 {
            let r = rank(n, 90.0);
            assert!(r * 100 >= 90 * n && (r - 1) * 100 < 90 * n, "n={n} rank={r}");
        }
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(tail(&one_to(100), 90.0), Some(90.0));
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(tail(&one_to(99), 90.0), None);
        assert_eq!(tail(&one_to(109), 90.0), Some(99.0));
        // p50 needs only 20 samples under the same rule.
        assert_eq!(tail(&one_to(20), 50.0), Some(10.0));
        assert_eq!(tail(&one_to(19), 50.0), None);
        assert_eq!(tail(&[], 90.0), None);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
