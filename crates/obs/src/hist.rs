//! Log-bucketed latency histograms (HDR-style) and the nearest-rank percentile helpers.
//!
//! A [`Histogram`] is a fixed array of `AtomicU64` buckets covering the whole `u64` range with
//! a bounded relative error: each power of two is split into 8 linear sub-buckets, so a
//! recorded value lands in a bucket whose upper bound is at most 12.5% above it.  Recording is
//! one atomic increment plus two atomic adds — no locks, no allocation — so histograms can sit
//! on hot paths and be shared freely across worker threads.  Snapshots are plain vectors that
//! [merge](HistSnapshot::merge) bucket-wise, which is how per-worker histograms
//! roll up into one service-wide distribution.
//!
//! The sort-based [`LatencySummary`]/[`percentile`] pair (exact nearest-rank percentiles over
//! a sample vector) lives here too: it predates the histogram and remains the right tool for
//! small bounded sample sets (per-batch reports), while the histogram serves unbounded
//! streams (per-stage, per-endpoint).  Both use the same nearest-rank convention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per power of two: values within one octave resolve to 8 linear steps, bounding
/// the relative error of any reported quantile at `1/8 = 12.5%`.
const SUBS: usize = 8;
/// Values below `2^LINEAR_BITS` get one bucket each (exact small values).
const LINEAR_BITS: u32 = 3;
/// Total buckets: 8 exact small values + 8 sub-buckets for each of the 61 octaves `2^3..2^63`.
pub const NUM_BUCKETS: usize = SUBS + (64 - LINEAR_BITS as usize) * SUBS;

/// The bucket index a value lands in.
fn bucket_index(value: u64) -> usize {
    if value < (1 << LINEAR_BITS) {
        return value as usize;
    }
    let h = 63 - value.leading_zeros(); // h >= LINEAR_BITS
    let sub = ((value >> (h - LINEAR_BITS)) & (SUBS as u64 - 1)) as usize;
    SUBS + (h - LINEAR_BITS) as usize * SUBS + sub
}

/// The largest value that maps to `index` (inclusive) — what quantile queries report, so a
/// reported percentile never understates the true one.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let h = LINEAR_BITS + ((index - SUBS) / SUBS) as u32;
    let sub = ((index - SUBS) % SUBS) as u128;
    let bound = (1u128 << h) + ((sub + 1) << (h - LINEAR_BITS)) - 1;
    u64::try_from(bound).unwrap_or(u64::MAX)
}

/// A lock-free log-bucketed histogram over `u64` values (typically nanoseconds).
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value: one relaxed increment per field, no lock, no allocation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in integer nanoseconds (saturating at `u64::MAX` ≈ 584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A consistent-enough copy of the current state (relaxed loads; concurrent recording may
    /// skew `count` vs the buckets by in-flight increments, never by more).
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], mergeable across workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Total recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The largest recorded value (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another snapshot in bucket-wise (worker roll-up).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank `q` quantile (`0.0..=1.0`), reported as the owning bucket's upper
    /// bound (≤ 12.5% above the true value); 0 when empty.  The exact `max` caps the answer,
    /// so `value_at_quantile(1.0) == max()`.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.value_at_quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// The non-empty buckets as `(inclusive upper bound, cumulative count)` pairs, upper
    /// bounds strictly ascending and cumulative counts monotone — the exact series a
    /// Prometheus `_bucket`/`le` exposition needs (the final `+Inf` bucket is the writer's).
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            out.push((bucket_upper_bound(index), cumulative));
        }
        out
    }
}

/// The nearest-rank percentile of an ascending-sorted sample set; `q` is in percent
/// (`50.0` = median).  Empty input reports [`Duration::ZERO`].
#[must_use]
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact p50/p95/p99 over a bounded sample vector (sorted here, in one place).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
}

impl LatencySummary {
    /// Summarises a sample set (consumed: sorting is done here, in one place).
    #[must_use]
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        samples.sort_unstable();
        LatencySummary {
            p50: percentile(&samples, 50.0),
            p95: percentile(&samples, 95.0),
            p99: percentile(&samples, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_buckets_cover_u64() {
        for v in 0..64u64 {
            let bound = bucket_upper_bound(bucket_index(v));
            assert!(bound >= v, "bucket for {v} tops out below it");
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
        for v in 0..8u64 {
            assert_eq!(
                bucket_upper_bound(bucket_index(v)),
                v,
                "small values are exact"
            );
        }
    }

    #[test]
    fn bucket_bounds_are_strictly_increasing_and_relative_error_is_bounded() {
        let mut prev = None;
        for index in 0..NUM_BUCKETS {
            let bound = bucket_upper_bound(index);
            if let Some(p) = prev {
                assert!(bound > p, "bucket {index} bound not increasing");
            }
            prev = Some(bound);
        }
        // Any value's reported bound is within 12.5% above it.
        for v in [9u64, 100, 1_000, 123_456, 10_000_000_000, u64::MAX / 3] {
            let bound = bucket_upper_bound(bucket_index(v));
            assert!(
                bound as f64 <= v as f64 * 1.125 + 1.0,
                "error too large for {v}"
            );
        }
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        assert_eq!(s.max(), 1000);
        let p50 = s.p50();
        assert!((450..=563).contains(&p50), "p50 {p50} outside 12.5% of 500");
        let p99 = s.p99();
        assert!((980..=1000).contains(&p99), "p99 {p99} off");
        assert_eq!(s.value_at_quantile(1.0), 1000, "q=1.0 is the exact max");
        assert_eq!(
            HistSnapshot::default().p999(),
            0,
            "empty histogram quantiles are 0"
        );
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v * 1000);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 200);
        assert_eq!(merged.max(), 99_000);
        let cumulative = merged.cumulative_buckets();
        assert_eq!(
            cumulative.last().unwrap().1,
            200,
            "cumulative tops out at count"
        );
        let mut prev = (0u64, 0u64);
        for &(le, n) in &cumulative {
            assert!(le > prev.0 || prev == (0, 0), "le series must ascend");
            assert!(n >= prev.1, "cumulative counts must be monotone");
            prev = (le, n);
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v + t);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 40_000);
    }

    #[test]
    fn percentiles_use_nearest_rank_and_survive_empty_samples() {
        let samples: Vec<Duration> = (1..=100).rev().map(Duration::from_millis).collect();
        let summary = LatencySummary::from_samples(samples);
        assert_eq!(summary.p50, Duration::from_millis(50));
        assert_eq!(summary.p95, Duration::from_millis(95));
        assert_eq!(summary.p99, Duration::from_millis(99));
        assert_eq!(
            LatencySummary::from_samples(Vec::new()),
            LatencySummary::default()
        );
        let single = LatencySummary::from_samples(vec![Duration::from_millis(7)]);
        assert_eq!(single.p50, Duration::from_millis(7));
        assert_eq!(single.p99, Duration::from_millis(7));
    }
}
