//! Latency summaries that never report a tail the samples cannot carry.
//!
//! Below [`MIN_FOR_TAIL`] samples only the median is reported. Above it,
//! a percentile `q` is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it, so p99 needs 1,000 samples and p90 needs 100.

/// Fewer samples than this: the median alone.
pub const MIN_FOR_TAIL: usize = 40;
/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of `samples` (nearest rank on the sorted samples),
/// or `None` when the sample count cannot support it. `q = 0.5` is
/// always available for a non-empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank, guarded against `q * n` landing a hair above an integer.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    if q > 0.5 && (n < MIN_FOR_TAIL || n - rank < MIN_BEYOND) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (`None` for an empty sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Arithmetic mean (`0` for an empty sample).
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

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn below_forty_samples_only_the_median() {
        let s = ramp(39);
        assert_eq!(median(&s), Some(20.0));
        assert_eq!(percentile(&s, 0.9), None);
        assert_eq!(percentile(&s, 0.99), None);
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        // 100 samples: p90 has exactly ten beyond it, p99 has one.
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), None);
        // 40 samples: p75 has ten beyond it, p80 only eight.
        let s = ramp(40);
        assert_eq!(percentile(&s, 0.75), Some(30.0));
        assert_eq!(percentile(&s, 0.8), None);
        // 1,000 samples carry p99.
        let s = ramp(1000);
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&s, 0.5), Some(500.0));
    }
}
