//! Order statistics over latency samples.

/// The `p`-th percentile (`0 < p <= 100`) by the nearest-rank rule: the
/// smallest sample with at least `p` percent of the samples at or below
/// it. Sorts `samples` in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    samples[rank(samples.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `count` samples.
fn rank(count: usize, p: f64) -> usize {
    (((p / 100.0) * count as f64).ceil() as usize).clamp(1, count.max(1))
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile of `count` samples.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count.saturating_sub(rank(count, p))
}

/// The highest of p50 / p90 / p99 that still has at least ten samples
/// beyond it — the tail percentile `count` samples can support. `None`
/// when even the median has fewer than ten samples above it.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    [99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(count, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut s, 50.0), 50.0);
        assert_eq!(percentile(&mut s, 90.0), 90.0);
        assert_eq!(percentile(&mut s, 99.0), 99.0);
        assert_eq!(percentile(&mut s, 100.0), 100.0);
        let mut one = [7.0];
        assert_eq!(percentile(&mut one, 90.0), 7.0);
        let mut odd = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(25_000), Some(99.0));
    }
}
