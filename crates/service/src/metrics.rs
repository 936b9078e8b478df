//! Service observability: decision counters, decision-latency percentiles,
//! and utilization snapshots.
//!
//! Every shard keeps its own [`ServiceCounters`] and lock-free latency
//! histogram, in that shard's cache-aligned block, so decisions on
//! different shards never write the same counter line; readers sum the
//! per-shard [`CounterSnapshot`]s (`CounterSnapshot` implements `Sum`)
//! and merge the histograms.
//!
//! The latency histogram reuses [`frap_core::hist::LatencyHistogram`]
//! (moved out of the simulator for exactly this purpose) but records
//! **nanoseconds** rather than microseconds: admission decisions take on
//! the order of 100 ns, far below the workspace's microsecond tick, so
//! the histogram's integer tick is reinterpreted as 1 ns here. The
//! `*_ns` accessors do the unit bookkeeping so callers never touch a
//! mislabeled `TimeDelta`.

use frap_core::hist::LatencyHistogram;
use frap_core::time::TimeDelta;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone decision counters of one shard, updated lock-free by the
/// threads that decide on it.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    released: AtomicU64,
    expired: AtomicU64,
    expired_on_arrival: AtomicU64,
    fast_rejected: AtomicU64,
    seqlock_fallbacks: AtomicU64,
    cas_retries: AtomicU64,
}

impl ServiceCounters {
    pub(crate) fn add_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_rejected_n(&self, n: u64) {
        self.rejected.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_shed(&self, n: u64) {
        self.shed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_released(&self) {
        self.released.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_expired(&self, n: u64) {
        self.expired.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_expired_on_arrival_n(&self, n: u64) {
        self.expired_on_arrival.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a lock-free fast-path rejection. The decision is *not* also
    /// added to `rejected` here — the fast path pays exactly one atomic
    /// RMW per decision — `snapshot` folds the two together so
    /// [`CounterSnapshot::rejected`] still covers every rejection.
    pub(crate) fn add_fast_rejected(&self) {
        self.add_fast_rejected_n(1);
    }

    /// Counts `n` fast-path rejections with one RMW (a batch run's).
    pub(crate) fn add_fast_rejected_n(&self, n: u64) {
        self.fast_rejected.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_seqlock_fallback(&self) {
        self.seqlock_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_cas_retry(&self) {
        self.cas_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        let fast_rejected = self.fast_rejected.load(Ordering::Relaxed);
        CounterSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            // The locked path and the fast path keep separate tallies so
            // each decision costs one RMW; `rejected` reports their sum.
            rejected: self.rejected.load(Ordering::Relaxed) + fast_rejected,
            shed: self.shed.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            expired_on_arrival: self.expired_on_arrival.load(Ordering::Relaxed),
            fast_rejected,
            seqlock_fallbacks: self.seqlock_fallbacks.load(Ordering::Relaxed),
            cas_retries: self.cas_retries.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ServiceCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Arrivals admitted (including after shedding).
    pub admitted: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Admitted tasks evicted to make room for more important arrivals.
    pub shed: u64,
    /// Tickets released (dropped or explicitly released) before deadline.
    pub released: u64,
    /// Contributions decremented at their deadline by the timer wheel.
    pub expired: u64,
    /// Arrivals turned away before the admission test because their
    /// deadline budget was already consumed in transit (a front end such
    /// as `frap-gateway` charges these via
    /// [`note_expired_on_arrival`](crate::AdmissionService::note_expired_on_arrival);
    /// they never touch the shards and are not counted as decisions).
    pub expired_on_arrival: u64,
    /// The subset of `rejected` concluded by the lock-free reject fast
    /// path (DESIGN.md §14) without taking a shard mutex or the gate.
    pub fast_rejected: u64,
    /// Fast-path attempts that observed a torn seqlock snapshot (a
    /// concurrent charge was mid-flight). Diagnostic only — the verdict
    /// stays safe either way: a torn read can only conclude a
    /// conservative rejection, and admissions revalidate after charging.
    pub seqlock_fallbacks: u64,
    /// Optimistic CAS-charge attempts that failed post-charge
    /// revalidation, rolled back exactly, and retried. Diagnostic only —
    /// contention cost, never a wrong verdict.
    pub cas_retries: u64,
}

impl std::ops::Add for CounterSnapshot {
    type Output = CounterSnapshot;

    fn add(self, other: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            admitted: self.admitted + other.admitted,
            rejected: self.rejected + other.rejected,
            shed: self.shed + other.shed,
            released: self.released + other.released,
            expired: self.expired + other.expired,
            expired_on_arrival: self.expired_on_arrival + other.expired_on_arrival,
            fast_rejected: self.fast_rejected + other.fast_rejected,
            seqlock_fallbacks: self.seqlock_fallbacks + other.seqlock_fallbacks,
            cas_retries: self.cas_retries + other.cas_retries,
        }
    }
}

/// Sums per-shard snapshots into the service-wide one.
impl std::iter::Sum for CounterSnapshot {
    fn sum<I: Iterator<Item = CounterSnapshot>>(iter: I) -> CounterSnapshot {
        iter.fold(CounterSnapshot::default(), |acc, s| acc + s)
    }
}

impl CounterSnapshot {
    /// Total admission decisions taken (admit + reject).
    pub fn decisions(&self) -> u64 {
        self.admitted + self.rejected
    }

    /// Fraction of decisions that admitted (1 if no decisions yet).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.decisions() == 0 {
            1.0
        } else {
            self.admitted as f64 / self.decisions() as f64
        }
    }
}

/// Everything the service reports at once: counters, the merged
/// decision-latency histogram, the current utilization vector, and the
/// live-task count.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Decision counters at snapshot time.
    pub counters: CounterSnapshot,
    /// Merged decision-latency histogram; values are **nanoseconds**
    /// (see the module docs). Prefer the `decision_*_ns` accessors.
    pub decision_latency: LatencyHistogram,
    /// Aggregate synthetic utilization per stage at snapshot time.
    pub utilizations: Vec<f64>,
    /// Admitted tasks whose deadlines have not yet passed.
    pub live_tasks: usize,
}

impl MetricsSnapshot {
    /// Decision latency at quantile `q ∈ [0, 1]`, in nanoseconds.
    pub fn decision_latency_ns(&self, q: f64) -> u64 {
        ns_of(self.decision_latency.percentile(q))
    }

    /// Worst observed decision latency, in nanoseconds. When
    /// [`MetricsSnapshot::decision_max_is_bound`] is true this is a
    /// certain **lower** bound (`true max >= this`), not a sample: the
    /// lock-free paths record into a bucket-only atomic histogram, which
    /// knows extremes to bucket resolution, and its saturation bucket
    /// claims no upper bound at all.
    pub fn decision_max_ns(&self) -> u64 {
        ns_of(self.decision_latency.max_lower_bound())
    }

    /// Whether [`MetricsSnapshot::decision_max_ns`] is a bucket bound
    /// rather than an exact sample.
    pub fn decision_max_is_bound(&self) -> bool {
        !self.decision_latency.max_is_exact()
    }

    /// Human-readable max: `"812"` for an exact sample, `">=25165824"`
    /// for a bucket bound.
    pub fn decision_max_display(&self) -> String {
        if self.decision_max_is_bound() {
            format!(">={}", self.decision_max_ns())
        } else {
            format!("{}", self.decision_max_ns())
        }
    }
}

/// Records a decision duration into a nanosecond-valued histogram.
pub(crate) fn record_ns(hist: &mut LatencyHistogram, elapsed: std::time::Duration) {
    // The histogram's tick is reinterpreted as 1 ns (module docs).
    hist.record(TimeDelta::from_micros(elapsed.as_nanos() as u64));
}

/// [`record_ns`] for a shard's lock-free atomic histogram: `n` decisions
/// that each took `elapsed`, with one RMW.
pub(crate) fn record_ns_atomic(
    hist: &frap_core::hist::AtomicLatencyHistogram,
    elapsed: std::time::Duration,
    n: u64,
) {
    hist.record_n(TimeDelta::from_micros(elapsed.as_nanos() as u64), n);
}

fn ns_of(value: TimeDelta) -> u64 {
    value.as_micros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot() {
        let c = ServiceCounters::default();
        c.add_admitted();
        c.add_admitted();
        c.add_rejected();
        c.add_shed(3);
        c.add_released();
        c.add_expired(2);
        c.add_expired_on_arrival_n(1);
        c.add_fast_rejected();
        c.add_seqlock_fallback();
        c.add_cas_retry();
        let s = c.snapshot();
        assert_eq!(s.admitted, 2);
        // One locked rejection plus one fast-path rejection: `rejected`
        // reports the sum, `fast_rejected` the lock-free subset.
        assert_eq!(s.rejected, 2);
        assert_eq!(s.shed, 3);
        assert_eq!(s.released, 1);
        assert_eq!(s.expired, 2);
        assert_eq!(s.expired_on_arrival, 1);
        assert_eq!(s.fast_rejected, 1);
        assert_eq!(s.seqlock_fallbacks, 1);
        assert_eq!(s.cas_retries, 1);
        assert_eq!(s.decisions(), 4);
        assert!((s.acceptance_ratio() - 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn per_shard_snapshots_sum_field_by_field() {
        let (a, b) = (ServiceCounters::default(), ServiceCounters::default());
        a.add_admitted();
        a.add_fast_rejected_n(5);
        b.add_rejected_n(2);
        b.add_released();
        b.add_cas_retry();
        let total: CounterSnapshot = [a.snapshot(), b.snapshot()].into_iter().sum();
        assert_eq!(total.admitted, 1);
        assert_eq!(total.rejected, 7);
        assert_eq!(total.fast_rejected, 5);
        assert_eq!(total.released, 1);
        assert_eq!(total.cas_retries, 1);
        assert_eq!(total.decisions(), 8);
    }

    #[test]
    fn latency_is_recorded_in_nanoseconds() {
        let mut h = LatencyHistogram::new();
        record_ns(&mut h, std::time::Duration::from_nanos(800));
        let snap = MetricsSnapshot {
            counters: CounterSnapshot::default(),
            decision_latency: h,
            utilizations: vec![],
            live_tasks: 0,
        };
        let p99 = snap.decision_latency_ns(0.99);
        assert!((700..=900).contains(&p99), "p99={p99}");
    }
}
