//! Order statistics from raw samples. Nothing here bins: a percentile is
//! read off the sorted samples themselves.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule.
/// Sorts in place; `0` for an empty slice.
pub fn percentile<T: Copy + Ord + Default>(samples: &mut [T], q: f64) -> T {
    if samples.is_empty() {
        return T::default();
    }
    samples.sort_unstable();
    sorted_percentile(samples, q)
}

/// [`percentile`] of an already sorted slice.
pub fn sorted_percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    // The epsilon keeps products like 0.99 × 1000 from rounding up a rank.
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the tail percentiles p99.99, p99.9, p99 and p90 that
/// leaves at least ten samples beyond it, as `(percent, value, beyond)`.
/// Sorts in place.
pub fn supported_tail<T: Copy + Ord + Default>(samples: &mut [T]) -> (f64, T, usize) {
    samples.sort_unstable();
    let n = samples.len();
    for pct in [99.99, 99.9, 99.0, 90.0] {
        let beyond = n - ((pct / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize;
        if beyond >= 10 {
            return (pct, sorted_percentile(samples, pct / 100.0), beyond);
        }
    }
    (50.0, sorted_percentile(samples, 0.5), n / 2)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut v: Vec<u32> = (1..=1000).collect();
        let (pct, value, beyond) = supported_tail(&mut v);
        assert_eq!((pct, value, beyond), (99.0, 990, 10));
        let mut small: Vec<u32> = (1..=50).collect();
        assert_eq!(supported_tail(&mut small).0, 50.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
