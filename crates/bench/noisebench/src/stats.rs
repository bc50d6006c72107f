//! Order statistics for benchmark samples.
//!
//! Every helper sorts a copy with `f64::total_cmp`, so the result does not
//! depend on the order samples were collected in.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default exclusive method).
/// A single sample is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        // Clamp j to [1, n-1] exactly as CPython does for small samples.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 that has at
/// least ten samples above it, with its nearest-rank value. `None` when
/// fewer than twenty samples leave no such percentile.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    const CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let v = sorted(xs);
    let n = v.len();
    CANDIDATES.iter().find_map(|&p| {
        // Nearest rank: the smallest rank covering p percent of samples.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 19]), None);
        // 20 samples: p50 has 10 beyond it, p75 only 5.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        // 1000 samples: p99 leaves exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
        // 200 samples: p95 leaves 10.
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((95.0, 190.0)));
    }
}
