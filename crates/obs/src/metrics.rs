//! The metric primitives: lock-free [`Counter`] and [`Gauge`] atomics,
//! a fixed-bucket [`Histogram`] with cheap quantile readout, and the
//! scoped [`SpanTimer`] that records a duration on drop.
//!
//! All primitives are wait-free on the write path (a handful of relaxed
//! atomic adds), so instrumenting a hot loop costs nanoseconds and
//! never introduces a lock that could perturb the thing being measured.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::Clock;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (registry-wide resets between CLI phases).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous value (sizes, depths, watermarks).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Default bucket upper bounds for latency histograms, in microseconds:
/// a 1-2-5 ladder from 1 µs to 10 s. Values above the last bound land
/// in an implicit overflow bucket.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// A point-in-time view of a histogram, with the standard percentile
/// readouts. Produced by [`Histogram::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples observed.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Median (bucket upper bound containing the 50th percentile).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

/// A fixed-bucket histogram: `bounds.len()` buckets of `value <=
/// bounds[i]`, plus one overflow bucket. Observation is two relaxed
/// atomic adds plus a binary search over the (small, immutable) bound
/// array; quantiles are read by walking the cumulative counts.
///
/// Quantiles are reported as the *upper bound* of the bucket holding
/// the requested rank (the overflow bucket reports the last finite
/// bound), so readouts are conservative within one bucket's resolution
/// — plenty for p50/p95/p99 dashboards, and entirely deterministic.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[u64]>,
    counts: Box<[AtomicU64]>, // bounds.len() + 1 (overflow)
    sum: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    /// A histogram over the given strictly increasing bucket bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self { bounds: bounds.into(), counts, sum: AtomicU64::new(0), total: AtomicU64::new(0) }
    }

    /// A histogram with the default microsecond latency ladder
    /// ([`LATENCY_BUCKETS_US`]).
    pub fn latency() -> Self {
        Self::new(LATENCY_BUCKETS_US)
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples observed so far.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all samples observed so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 < q <= 1.0`), or 0 for an empty histogram. The overflow
    /// bucket reports the last finite bound.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return self.bounds[i.min(self.bounds.len() - 1)];
            }
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// Count, sum and p50/p95/p99 in one read.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// Resets every bucket to zero.
    pub fn reset(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed);
    }
}

/// A scoped timer: reads the injected [`Clock`] at construction and
/// records the elapsed microseconds into its histogram when dropped (or
/// explicitly [`stop`](SpanTimer::stop)ped).
///
/// ```
/// use std::sync::Arc;
/// use kb_obs::{Histogram, ManualClock, SpanTimer};
///
/// let clock = ManualClock::shared(0);
/// let hist = Arc::new(Histogram::latency());
/// {
///     let _span = SpanTimer::start(clock.clone(), hist.clone());
///     clock.advance(42);
/// } // drop records 42 µs
/// assert_eq!(hist.count(), 1);
/// assert_eq!(hist.sum(), 42);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    clock: Arc<dyn Clock>,
    hist: Arc<Histogram>,
    start: u64,
    stopped: bool,
}

impl SpanTimer {
    /// Starts timing now (per `clock`).
    pub fn start(clock: Arc<dyn Clock>, hist: Arc<Histogram>) -> Self {
        let start = clock.now_micros();
        Self { clock, hist, start, stopped: false }
    }

    /// Ends the span early, recording and returning the elapsed
    /// microseconds.
    pub fn stop(mut self) -> u64 {
        self.stopped = true;
        let elapsed = self.clock.now_micros().saturating_sub(self.start);
        self.hist.observe(elapsed);
        elapsed
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if !self.stopped {
            let elapsed = self.clock.now_micros().saturating_sub(self.start);
            self.hist.observe(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        g.reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 5, 10] {
            h.observe(v); // <= 10
        }
        for v in [11, 50] {
            h.observe(v); // <= 100
        }
        h.observe(5000); // overflow
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 5 + 10 + 11 + 50 + 5000);
        assert_eq!(h.quantile(0.5), 10); // rank 3 of 6 → first bucket
        assert_eq!(h.quantile(0.75), 100); // rank 5 → second bucket
        assert_eq!(h.quantile(0.99), 1000); // overflow reports last bound
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::latency();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot { count: 0, sum: 0, p50: 0, p95: 0, p99: 0 });
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn span_timer_records_on_drop_with_injected_clock() {
        let clock = ManualClock::shared(1_000);
        let hist = Arc::new(Histogram::latency());
        {
            let _span = SpanTimer::start(clock.clone(), hist.clone());
            clock.advance(250);
        }
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 250);
        assert_eq!(hist.quantile(0.5), 500); // 250 lands in the (200, 500] bucket
    }

    #[test]
    fn span_timer_stop_returns_elapsed() {
        let clock = ManualClock::shared(0);
        let hist = Arc::new(Histogram::latency());
        let span = SpanTimer::start(clock.clone(), hist.clone());
        clock.advance(7);
        assert_eq!(span.stop(), 7);
        assert_eq!(hist.count(), 1, "stop must record exactly once");
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let h = Arc::new(Histogram::new(&[1_000]));
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for v in 0..1_000 {
                        h.observe(v % 7);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
        assert_eq!(c.get(), 4_000);
    }
}
