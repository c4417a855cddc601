//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank definition and refuse to answer when
//! fewer than [`MIN_TAIL`] samples lie beyond the requested rank: a "p99"
//! over 32 samples is just the maximum, and a benchmark that reports it as
//! a tail latency overstates what it measured.

use std::fmt;

/// Samples that must lie strictly beyond a percentile's rank.
pub const MIN_TAIL: usize = 10;

/// Why a percentile could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// A sample is NaN or infinite.
    NonFinite,
    /// Too few samples beyond the rank for the percentile to mean anything.
    ThinTail { q: f64, samples: usize, beyond: usize },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::NonFinite => write!(f, "a sample is not finite"),
            StatsError::ThinTail { q, samples, beyond } => write!(
                f,
                "p{} over {samples} samples leaves {beyond} beyond it (need {MIN_TAIL})",
                q * 100.0
            ),
        }
    }
}

impl std::error::Error for StatsError {}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `values`, refused unless at
/// least [`MIN_TAIL`] samples lie strictly above the chosen rank.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::Empty);
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let n = values.len();
    // 1-based nearest rank: the smallest rank r with r/n >= q.
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_TAIL {
        return Err(StatsError::ThinTail { q, samples: n, beyond });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of `values` (mean of the two middle samples for even counts).
/// Unlike [`percentile`] it accepts any non-empty sample: it summarises
/// repeated measurements of one quantity, not a latency tail.
pub fn median(values: &[f64]) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::Empty);
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Ok(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Number of leading warm-up samples to discard: the shortest prefix after
/// which two consecutive windows of `window` samples have medians within
/// `tolerance` (relative) of each other. Returns `None` when the series
/// never settles within `times`.
pub fn settled_prefix(times: &[f64], window: usize, tolerance: f64) -> Option<usize> {
    if window == 0 {
        return Some(0);
    }
    let mut start = 0;
    while start + 2 * window <= times.len() {
        let a = median(&times[start..start + window]).ok()?;
        let b = median(&times[start + window..start + 2 * window]).ok()?;
        if (a - b).abs() <= tolerance * b.abs() {
            return Some(start + window);
        }
        start += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        assert_eq!(
            percentile(&ramp(99), 0.9),
            Err(StatsError::ThinTail { q: 0.9, samples: 99, beyond: 9 })
        );
    }

    #[test]
    fn p99_over_32_samples_is_refused() {
        // Nearest rank 32 of 32: the maximum, with nothing beyond it.
        assert!(matches!(percentile(&ramp(32), 0.99), Err(StatsError::ThinTail { beyond: 0, .. })));
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
    }

    #[test]
    fn p50_is_nearest_rank_and_order_independent() {
        let mut v = ramp(21);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Ok(11.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
    }

    #[test]
    fn empty_and_non_finite_samples_are_refused() {
        assert_eq!(percentile(&[], 0.5), Err(StatsError::Empty));
        let mut v = ramp(50);
        v[3] = f64::NAN;
        assert_eq!(percentile(&v, 0.5), Err(StatsError::NonFinite));
        assert_eq!(median(&[f64::INFINITY]), Err(StatsError::NonFinite));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(StatsError::Empty));
    }

    #[test]
    fn warm_up_prefix_ends_where_windows_agree() {
        // Four slow frames, then a steady 100.
        let times = [130.0, 125.0, 120.0, 118.0, 100.0, 101.0, 99.0, 100.0, 100.0, 101.0, 99.0];
        assert_eq!(settled_prefix(&times, 3, 0.05), Some(6));
        assert_eq!(settled_prefix(&[100.0; 6], 3, 0.05), Some(3));
        assert_eq!(settled_prefix(&[1.0, 10.0, 100.0, 1000.0], 2, 0.05), None);
    }
}
