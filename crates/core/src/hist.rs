//! A compact log-bucketed latency histogram (HdrHistogram-style, two
//! mantissa bits ⇒ ≤ 12.5 % relative bucket width), used for response-time
//! percentiles without storing per-task outcomes.

use crate::time::TimeDelta;

const SUB_BITS: u32 = 2;
const SUB: usize = 1 << SUB_BITS; // 4 sub-buckets per octave
const OCTAVES: usize = 64;
const BUCKETS: usize = OCTAVES * SUB;

/// A histogram over [`TimeDelta`] values with bounded relative error.
///
/// # Examples
///
/// ```
/// use frap_core::hist::LatencyHistogram;
/// use frap_core::time::TimeDelta;
///
/// let mut h = LatencyHistogram::new();
/// for ms in 1..=100u64 {
///     h.record(TimeDelta::from_millis(ms));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(0.50);
/// // Within one bucket (≤ ~15%) of the true median of 50 ms.
/// assert!(p50 >= TimeDelta::from_millis(44) && p50 <= TimeDelta::from_millis(58));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: TimeDelta,
    min: TimeDelta,
    /// A certain lower bound on the largest recorded value. Equals `max`
    /// while every sample was recorded exactly; after merging bucket-only
    /// sources it can sit one bucket below `max`.
    max_lb: TimeDelta,
    /// Whether `max` is the exact largest sample (vs. a bucket or
    /// saturation bound inherited from an [`AtomicLatencyHistogram`]).
    max_exact: bool,
    /// Samples known only as `>= SATURATION_BOUND` (the atomic
    /// histogram's overflow bucket).
    saturated: u64,
}

/// Values at or above this bound (in the histogram's own unit) land in
/// [`AtomicLatencyHistogram`]'s explicit overflow bucket and are reported
/// only as `>= SATURATION_BOUND` — no upper bound is claimed for them.
pub const SATURATION_BOUND: u64 = 1 << 35;

fn bucket_of(micros: u64) -> usize {
    if micros < SUB as u64 {
        // Values 0..3 land in the first buckets exactly.
        return micros as usize;
    }
    let octave = 63 - micros.leading_zeros();
    let sub = ((micros >> (octave - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (octave as usize) * SUB + sub
}

fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = (idx / SUB) as u32;
    let sub = (idx % SUB) as u64;
    // Upper edge of the sub-bucket.
    (1u64 << octave) + (sub + 1) * (1u64 << (octave - SUB_BITS)) - 1
}

fn bucket_lower_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        bucket_upper_bound(idx - 1) + 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: TimeDelta::ZERO,
            min: TimeDelta::MAX,
            max_lb: TimeDelta::ZERO,
            max_exact: true,
            saturated: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: TimeDelta) {
        self.counts[bucket_of(value.as_micros())] += 1;
        self.total += 1;
        self.max_lb = self.max_lb.max(value);
        if value >= self.max {
            // A sample at or above the previous max (exact or bound)
            // makes the max exact again.
            self.max = value;
            self.max_exact = true;
        }
        self.min = self.min.min(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The largest recorded value. Exact while every sample came through
    /// [`LatencyHistogram::record`]; after merging an
    /// [`AtomicLatencyHistogram`] it may be a bucket upper bound (see
    /// [`LatencyHistogram::max_is_exact`]), and with saturated samples it
    /// is only the saturation bound — the true max can exceed it.
    pub fn max(&self) -> TimeDelta {
        if self.is_empty() {
            TimeDelta::ZERO
        } else {
            self.max
        }
    }

    /// Whether [`LatencyHistogram::max`] is an exact sample rather than a
    /// bucket / saturation bound inherited from a bucket-only source.
    pub fn max_is_exact(&self) -> bool {
        self.max_exact
    }

    /// A certain lower bound on the largest recorded value: the honest
    /// `>= bound` figure to report when [`LatencyHistogram::max_is_exact`]
    /// is false (it equals [`LatencyHistogram::max`] when exact).
    pub fn max_lower_bound(&self) -> TimeDelta {
        if self.is_empty() {
            TimeDelta::ZERO
        } else {
            self.max_lb
        }
    }

    /// Samples recorded only as `>= SATURATION_BOUND` via an atomic
    /// source's overflow bucket.
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// The smallest recorded value (exact).
    pub fn min(&self) -> TimeDelta {
        if self.is_empty() {
            TimeDelta::ZERO
        } else {
            self.min
        }
    }

    /// The value at quantile `q ∈ [0, 1]` (bucket upper bound, so the
    /// estimate errs ≤ 12.5 % high). Returns zero for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn percentile(&self, q: f64) -> TimeDelta {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return TimeDelta::ZERO;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to the observed extremes for exactness at the tails.
                let ub = TimeDelta::from_micros(bucket_upper_bound(idx));
                return ub.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.saturated += other.saturated;
        if other.total > 0 {
            if other.max > self.max {
                self.max = other.max;
                self.max_exact = other.max_exact;
            }
            self.max_lb = self.max_lb.max(other.max_lb);
            self.min = self.min.min(other.min);
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// A [`LatencyHistogram`] recordable from many threads without a lock.
///
/// Same buckets and bounded relative error; `record` is a **single**
/// relaxed atomic increment, so lock-free decision paths can keep latency
/// accounting without re-introducing the mutex they just avoided (or a
/// tail of min/max RMWs per sample). The price: min and max are only
/// known to bucket resolution (≤ 12.5 % wide) rather than exactly, and
/// [`AtomicLatencyHistogram::count`] sums the buckets instead of reading
/// one counter. Snapshot into the plain histogram with
/// [`AtomicLatencyHistogram::merge_into`].
#[derive(Debug)]
pub struct AtomicLatencyHistogram {
    counts: Vec<std::sync::atomic::AtomicU64>,
    /// Explicit saturation bucket: samples `>= SATURATION_BOUND`, for
    /// which only that lower bound is claimed. Kept out of the log
    /// buckets so reporting can say `>= bound` instead of inventing an
    /// in-range value for a wildly out-of-range sample.
    overflow: std::sync::atomic::AtomicU64,
}

impl AtomicLatencyHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicLatencyHistogram {
        AtomicLatencyHistogram {
            counts: (0..BUCKETS).map(|_| Default::default()).collect(),
            overflow: Default::default(),
        }
    }

    /// Records one value (one relaxed `fetch_add`).
    pub fn record(&self, value: TimeDelta) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value with one relaxed
    /// `fetch_add` — a batch whose decisions share one measured duration
    /// pays one RMW for all of them.
    pub fn record_n(&self, value: TimeDelta, n: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        let v = value.as_micros();
        if v >= SATURATION_BOUND {
            self.overflow.fetch_add(n, Relaxed);
        } else {
            self.counts[bucket_of(v)].fetch_add(n, Relaxed);
        }
    }

    /// Samples that landed in the explicit saturation bucket.
    pub fn saturated(&self) -> u64 {
        self.overflow.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of recorded values, the saturation bucket included (sums
    /// the buckets; intended for snapshot/reporting paths, not per-sample
    /// hot loops).
    pub fn count(&self) -> u64 {
        use std::sync::atomic::Ordering::Relaxed;
        self.counts.iter().map(|c| c.load(Relaxed)).sum::<u64>() + self.saturated()
    }

    /// Adds this histogram's cumulative contents into `out`, like
    /// [`LatencyHistogram::merge`] (it does not drain; callers building a
    /// point-in-time snapshot should merge into a fresh histogram).
    /// Values recorded concurrently may or may not be included.
    ///
    /// `out`'s min/max are widened to the *bucket bounds* of the lowest
    /// and highest non-empty buckets — within the histogram's ≤ 12.5 %
    /// relative error, but not exact the way `LatencyHistogram::record`'s
    /// own extremes are. `out` remembers that: its `max_is_exact` flips
    /// off whenever the merged bound dominates, and `max_lower_bound`
    /// carries the honest `>= bound` figure (the highest non-empty
    /// bucket's lower edge, or `SATURATION_BOUND` once the overflow
    /// bucket is populated).
    pub fn merge_into(&self, out: &mut LatencyHistogram) {
        use std::sync::atomic::Ordering::Relaxed;
        let mut total = 0u64;
        let mut lowest = None;
        let mut highest = None;
        for (bucket, count) in self.counts.iter().enumerate() {
            let c = count.load(Relaxed);
            if c > 0 {
                out.counts[bucket] += c;
                total += c;
                lowest.get_or_insert(bucket);
                highest = Some(bucket);
            }
        }
        if total > 0 {
            out.total += total;
            let (lo, hi) = (lowest.expect("non-empty"), highest.expect("non-empty"));
            let ub = TimeDelta::from_micros(bucket_upper_bound(hi));
            if ub > out.max {
                out.max = ub;
                out.max_exact = false;
            }
            out.max_lb = out
                .max_lb
                .max(TimeDelta::from_micros(bucket_lower_bound(hi)));
            out.min = out.min.min(TimeDelta::from_micros(bucket_lower_bound(lo)));
        }
        let saturated = self.saturated();
        if saturated > 0 {
            let bound = TimeDelta::from_micros(SATURATION_BOUND);
            out.total += saturated;
            out.saturated += saturated;
            out.min = out.min.min(bound);
            out.max_lb = out.max_lb.max(bound);
            if bound >= out.max {
                // No upper bound is known for saturated samples; `max`
                // degrades to the saturation bound itself.
                out.max = bound;
                out.max_exact = false;
            }
        }
    }
}

impl Default for AtomicLatencyHistogram {
    fn default() -> Self {
        AtomicLatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> TimeDelta {
        TimeDelta::from_micros(v)
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), TimeDelta::ZERO);
        assert_eq!(h.max(), TimeDelta::ZERO);
        assert_eq!(h.min(), TimeDelta::ZERO);
    }

    #[test]
    fn exact_for_tiny_values() {
        let mut h = LatencyHistogram::new();
        h.record(us(0));
        h.record(us(1));
        h.record(us(2));
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(0.0), us(0));
        assert_eq!(h.percentile(1.0), us(2));
    }

    #[test]
    fn percentiles_within_bucket_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(us(v));
        }
        for &(q, truth) in &[(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let est = h.percentile(q).as_micros();
            let err = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(err < 0.13, "q={q} est={est} truth={truth} err={err}");
        }
    }

    #[test]
    fn max_and_min_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(us(123_457));
        h.record(us(7));
        assert_eq!(h.max(), us(123_457));
        assert_eq!(h.min(), us(7));
        assert_eq!(h.percentile(1.0), us(123_457));
    }

    #[test]
    fn monotone_in_quantile() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for _ in 0..50 {
            h.record(us(x));
            x = x.wrapping_mul(48271) % 1_000_000 + 1;
        }
        let mut prev = TimeDelta::ZERO;
        for i in 0..=20 {
            let p = h.percentile(i as f64 / 20.0);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(us(10));
        b.record(us(1_000));
        b.record(us(2_000));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), us(2_000));
        assert_eq!(a.min(), us(10));
    }

    #[test]
    fn bucket_roundtrip_is_monotone_and_tight() {
        let mut values: Vec<u64> = Vec::new();
        for exp in 0..50u32 {
            for sub in [0u64, 1, 2, 3] {
                values.push((1u64 << exp) + sub * (1u64 << exp.saturating_sub(2)));
            }
        }
        values.sort_unstable();
        values.dedup();
        let mut prev_idx = 0;
        for v in values {
            let idx = bucket_of(v);
            assert!(idx >= prev_idx, "bucketing must be monotone at v={v}");
            prev_idx = idx;
            let ub = bucket_upper_bound(idx);
            assert!(ub >= v, "upper bound {ub} must cover value {v}");
            assert!(
                (ub as f64) <= v as f64 * 1.26 + 4.0,
                "bucket too wide: v={v} ub={ub}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        LatencyHistogram::new().percentile(1.5);
    }

    #[test]
    fn atomic_histogram_matches_the_locked_one() {
        let atomic = AtomicLatencyHistogram::new();
        let mut plain = LatencyHistogram::new();
        let mut x = 1u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(48271) % 2_000_000 + 1;
            atomic.record(us(x));
            plain.record(us(x));
        }
        let mut merged = LatencyHistogram::new();
        atomic.merge_into(&mut merged);
        assert_eq!(merged.count(), plain.count());
        assert_eq!(atomic.count(), plain.count());
        // Extremes are bucket-resolution (≤ 12.5 % wide), bracketing the
        // exact ones the locked histogram tracks per sample.
        assert!(merged.max() >= plain.max());
        assert!(merged.max().as_micros() as f64 <= plain.max().as_micros() as f64 * 1.26 + 4.0);
        assert!(merged.min() <= plain.min());
        assert!(merged.min().as_micros() as f64 >= plain.min().as_micros() as f64 / 1.26 - 4.0);
        for q in [0.1, 0.5, 0.9, 0.99] {
            // Same buckets, so mid-range percentiles agree except where
            // the locked histogram clamps to its exact extremes.
            let (m, p) = (merged.percentile(q), plain.percentile(q));
            assert!(m >= p, "q={q}");
            assert!(
                m.as_micros() as f64 <= p.as_micros() as f64 * 1.26 + 4.0,
                "q={q}"
            );
        }
        // Merging into a non-empty histogram accumulates.
        atomic.merge_into(&mut merged);
        assert_eq!(merged.count(), 2 * plain.count());
    }

    #[test]
    fn record_n_equals_n_single_records() {
        let batched = AtomicLatencyHistogram::new();
        let singles = AtomicLatencyHistogram::new();
        for (v, n) in [
            (us(0), 3u64),
            (us(850), 7),
            (us(1 << 20), 1),
            (us(u64::MAX), 2),
        ] {
            batched.record_n(v, n);
            for _ in 0..n {
                singles.record(v);
            }
        }
        batched.record_n(us(40), 0);
        assert_eq!(batched.count(), 13);
        assert_eq!(batched.saturated(), 2);
        let (mut a, mut b) = (LatencyHistogram::new(), LatencyHistogram::new());
        batched.merge_into(&mut a);
        singles.merge_into(&mut b);
        assert_eq!(a.count(), b.count());
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(a.percentile(q), b.percentile(q), "q={q}");
        }
        assert_eq!((a.min(), a.max()), (b.min(), b.max()));
    }

    #[test]
    fn empty_atomic_merge_is_a_no_op() {
        let atomic = AtomicLatencyHistogram::new();
        let mut out = LatencyHistogram::new();
        out.record(us(5));
        atomic.merge_into(&mut out);
        assert_eq!(out.count(), 1);
        assert_eq!(out.min(), us(5));
    }

    #[test]
    fn merged_max_is_flagged_as_a_bound() {
        let mut plain = LatencyHistogram::new();
        plain.record(us(100));
        assert!(plain.max_is_exact());
        assert_eq!(plain.max_lower_bound(), us(100));

        // An atomic source with a larger sample: the merged max comes
        // from a bucket, so it must be flagged and bracketed.
        let atomic = AtomicLatencyHistogram::new();
        atomic.record(us(1_000_000));
        atomic.merge_into(&mut plain);
        assert!(!plain.max_is_exact());
        assert!(plain.max_lower_bound() <= us(1_000_000));
        assert!(plain.max() >= us(1_000_000));
        assert!(plain.max_lower_bound() <= plain.max());

        // A later exact sample at/above the bound restores exactness.
        plain.record(plain.max());
        assert!(plain.max_is_exact());
    }

    #[test]
    fn merged_max_stays_exact_when_the_exact_side_dominates() {
        let mut plain = LatencyHistogram::new();
        plain.record(us(5_000_000));
        let atomic = AtomicLatencyHistogram::new();
        atomic.record(us(10));
        atomic.merge_into(&mut plain);
        assert!(plain.max_is_exact());
        assert_eq!(plain.max(), us(5_000_000));
        assert_eq!(plain.max_lower_bound(), us(5_000_000));
    }

    #[test]
    fn saturation_bucket_reports_a_lower_bound_only() {
        let atomic = AtomicLatencyHistogram::new();
        atomic.record(us(SATURATION_BOUND));
        atomic.record(us(u64::MAX));
        atomic.record(us(7));
        assert_eq!(atomic.saturated(), 2);
        assert_eq!(atomic.count(), 3);

        let mut out = LatencyHistogram::new();
        atomic.merge_into(&mut out);
        assert_eq!(out.count(), 3);
        assert_eq!(out.saturated(), 2);
        assert!(!out.max_is_exact());
        assert_eq!(out.max(), us(SATURATION_BOUND));
        assert_eq!(out.max_lower_bound(), us(SATURATION_BOUND));
        // The saturated tail surfaces at the bound in the percentiles.
        assert_eq!(out.percentile(1.0), us(SATURATION_BOUND));

        // Plain merge carries the saturation accounting along.
        let mut sum = LatencyHistogram::new();
        sum.merge(&out);
        assert_eq!(sum.saturated(), 2);
        assert!(!sum.max_is_exact());
    }

    #[test]
    fn atomic_histogram_is_thread_safe() {
        let atomic = std::sync::Arc::new(AtomicLatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&atomic);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(us(t * 1_000 + i % 97));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let mut out = LatencyHistogram::new();
        atomic.merge_into(&mut out);
        assert_eq!(out.count(), 40_000);
        assert_eq!(out.min(), us(0), "bucket 0 is exact");
        let max = out.max().as_micros();
        assert!(
            (3_096..=3_584).contains(&max),
            "bucket-resolution max: {max}"
        );
    }
}
