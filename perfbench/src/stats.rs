//! Order statistics for reported timings.
//!
//! Every percentile is nearest-rank: the value at 1-based rank
//! `ceil(p · n)` of the ascending samples. A tail is reported only at a
//! percentile that leaves at least [`MIN_BEYOND`] samples above it, so a
//! tail figure always rests on ten or more observations.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.9 · 100` at rank 90 when the product rounds up.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly above the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when `n` is too small for any.
pub fn tail_level(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of unsorted samples; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest-rank median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The tail of `samples` under [`tail_level`], with the percentile used;
/// `None` when there are too few samples for any tail.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    tail_level(samples.len()).map(|p| (p, percentile(samples, p)))
}

/// One line describing a sample set: its median, its tail under the
/// rule above, and the sample count.
pub fn summary(name: &str, unit: &str, samples: &[f64]) -> String {
    let p50 = median(samples);
    match tail(samples) {
        Some((p, v)) if p > 0.5 => format!(
            "{name}: p50 {p50:.4} {unit}, p{} {v:.4} {unit} (n={})",
            p * 100.0,
            samples.len()
        ),
        _ => format!(
            "{name}: p50 {p50:.4} {unit} (n={}, no tail above p50)",
            samples.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(99), Some(0.5));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(199), Some(0.9));
        assert_eq!(tail_level(200), Some(0.95));
        assert_eq!(tail_level(999), Some(0.95));
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
        // The chosen level always leaves at least ten samples beyond it,
        // and the next rung up never does.
        for n in 20..3000 {
            let p = tail_level(n).expect("n >= 20 has a median tail");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                assert!(beyond(n, next) < MIN_BEYOND, "n={n} skipped {next}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(tail(&xs), Some((0.9, 90.0)));
        assert_eq!(tail(&xs[..19]), None);
    }
}
