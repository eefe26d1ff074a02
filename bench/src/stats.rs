//! Order statistics used by every metric: percentiles with linear
//! interpolation, and the interquartile mean that turns per-round values
//! into the one number a run reports.

/// The `p`-th percentile (`0.0..=1.0`) of `sorted` (ascending), linearly
/// interpolated between the two nearest ranks. Empty input yields `0.0`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `values` in place (NaN-free input) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    values
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// The interquartile mean: the mean of what is left after dropping the
/// lowest and the highest quarter (`len / 4` values each). One stalled
/// round — a compaction, a scheduler hiccup — lands in a dropped quarter
/// instead of moving the reported value.
pub fn iq_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values.to_vec());
    let drop = sorted.len() / 4;
    let kept = &sorted[drop..sorted.len() - drop];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 4.0);
    }

    #[test]
    fn interquartile_mean_drops_both_tails() {
        // 8 values: drop 2 from each end, mean of the middle four.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(iq_mean(&v), (2.0 + 3.0 + 4.0 + 5.0) / 4.0);
        // Fewer than four values: nothing to drop.
        assert_eq!(iq_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(iq_mean(&[]), 0.0);
        // An outlier round does not move the result.
        let steady = [10.0; 16];
        let mut stalled = steady;
        stalled[3] = 1e6;
        assert_eq!(iq_mean(&steady), iq_mean(&stalled));
    }
}
