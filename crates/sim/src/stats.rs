//! Measurement toolkit: log-linear histograms, bucketed time series and
//! counters.
//!
//! Every experiment in the paper reports either a latency distribution
//! (Fig 7), a time series (Figs 3, 8, 10, 11, 12), or a counter (Fig 9,
//! CNP/TX-pause counts). These three types are the common currency between
//! the simulator, the analysis framework and the bench harness.

use serde::Serialize;

/// A log-linear histogram of `u64` values (HDR-histogram style).
///
/// Values below 2^SUB_BITS are recorded exactly; above that, each octave is
/// split into 2^SUB_BITS linear sub-buckets, giving a worst-case relative
/// quantization error of 1/2^SUB_BITS ≈ 1.6 %.
///
/// Memory follows use: `counts` starts empty and grows to the highest
/// bucket recorded, so a histogram that only ever sees values below 64
/// holds at most 64 counters, not all [`NBUCKETS`].
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Per-bucket counts up to the highest bucket recorded; buckets past
    /// the end are zero.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS; // 64 sub-buckets per octave
/// Buckets needed to cover the full u64 range: the upper bound that a
/// [`Histogram`]'s `counts` grows towards, reached only at the top of it.
const NBUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB as usize;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = octave - SUB_BITS;
        let sub = (v >> shift) - SUB; // in [0, SUB)
        ((shift as u64 + 1) * SUB + sub) as usize
    }
}

/// The midpoint value a bucket represents (used when reading percentiles).
#[inline]
fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let shift = idx / SUB - 1;
        let sub = idx % SUB + SUB;
        // Midpoint of the bucket's range.
        (sub << shift) + (1u64 << shift) / 2
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The counter for `v`'s bucket, growing `counts` to reach it.
    #[inline]
    fn bucket_mut(&mut self, v: u64) -> &mut u64 {
        let idx = bucket_index(v);
        debug_assert!(idx < NBUCKETS);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        &mut self.counts[idx]
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        *self.bucket_mut(v) += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `n` observations of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.bucket_mut(v) += n;
        self.total += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of all recorded values (not quantized). This is what lets
    /// per-stage span histograms reconcile with end-to-end latency to the
    /// nanosecond even though percentiles are log-bucketed.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean (exact, not quantized).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at percentile `p` in `[0, 100]`, quantized to bucket midpoints
    /// except for the exact min/max endpoints.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if p <= 0.0 {
            return self.min();
        }
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn median(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Compact summary for reports.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.total,
            min: self.min(),
            mean: self.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            max: self.max,
        }
    }
}

/// Serializable summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HistSummary {
    pub count: u64,
    pub min: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
    pub max: u64,
}

/// How a [`TimeSeries`] combines multiple observations in one bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Sum of observations per bucket (throughput, IOPS, byte counts).
    Sum,
    /// Mean of observations per bucket (latency gauges, occupancy).
    Mean,
    /// Maximum observation per bucket (peak detection).
    Max,
}

/// A time series bucketed over fixed-width windows of virtual time.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    kind: SeriesKind,
    bucket_ns: u64,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Create a series with the given bucket width (in nanoseconds of
    /// virtual time) and combination rule.
    pub fn new(bucket_ns: u64, kind: SeriesKind) -> TimeSeries {
        assert!(bucket_ns > 0);
        TimeSeries {
            kind,
            bucket_ns,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Record observation `v` at virtual instant `t_ns`.
    pub fn record(&mut self, t_ns: u64, v: f64) {
        let idx = (t_ns / self.bucket_ns) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        match self.kind {
            SeriesKind::Sum | SeriesKind::Mean => self.sums[idx] += v,
            SeriesKind::Max => self.sums[idx] = self.sums[idx].max(v),
        }
        self.counts[idx] += 1;
    }

    /// Bucket width in nanoseconds.
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// Number of buckets (the last recorded bucket index + 1).
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Produce `(bucket_start_seconds, value)` rows. For `Sum` series the
    /// value is the per-bucket sum; for `Mean`, the per-bucket mean (0 for
    /// empty buckets); for `Max`, the per-bucket maximum.
    pub fn rows(&self) -> Vec<(f64, f64)> {
        self.sums
            .iter()
            .zip(self.counts.iter())
            .enumerate()
            .map(|(i, (&s, &c))| {
                let t = (i as u64 * self.bucket_ns) as f64 / 1e9;
                let v = match self.kind {
                    SeriesKind::Sum | SeriesKind::Max => s,
                    SeriesKind::Mean => {
                        if c == 0 {
                            0.0
                        } else {
                            s / c as f64
                        }
                    }
                };
                (t, v)
            })
            .collect()
    }

    /// Per-bucket value converted to a per-second rate (Sum series only).
    pub fn rate_rows(&self) -> Vec<(f64, f64)> {
        assert_eq!(self.kind, SeriesKind::Sum, "rate of a non-Sum series");
        let scale = 1e9 / self.bucket_ns as f64;
        self.rows()
            .into_iter()
            .map(|(t, v)| (t, v * scale))
            .collect()
    }

    /// Mean of the per-bucket values over a closed range of bucket indices.
    pub fn mean_over(&self, from_bucket: usize, to_bucket: usize) -> f64 {
        let rows = self.rows();
        let hi = to_bucket.min(rows.len().saturating_sub(1));
        if from_bucket > hi {
            return 0.0;
        }
        let slice = &rows[from_bucket..=hi];
        slice.iter().map(|&(_, v)| v).sum::<f64>() / slice.len() as f64
    }
}

/// A named monotonic counter.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&mut self) {
        self.value += 1;
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    pub fn get(&self) -> u64 {
        self.value
    }

    pub fn reset(&mut self) -> u64 {
        std::mem::take(&mut self.value)
    }
}

/// Jain's fairness index over a set of allocations — used by the incast and
/// flow-control experiments to check that fragmentation restores fairness.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_below_sub() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.percentile(100.0), 63);
        assert!((h.mean() - 31.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantization_error_bounded() {
        let mut h = Histogram::new();
        for v in [1_000u64, 10_000, 100_000, 1_000_000, 123_456_789] {
            h.clear();
            h.record(v);
            let p = h.percentile(50.0);
            let err = (p as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 64.0 + 1e-9, "v={v} p={p} err={err}");
        }
    }

    #[test]
    fn histogram_percentiles_ordered() {
        let mut h = Histogram::new();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 40);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(h.min() <= p50 && p50 <= p90 && p90 <= p99 && p99 <= h.max());
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 17);
            } else {
                b.record(v * 17);
            }
            all.record(v * 17);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.percentile(50.0), all.percentile(50.0));
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_record_n() {
        let mut h = Histogram::new();
        h.record_n(10, 5);
        h.record_n(20, 0);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 10);
    }

    /// Reference: the eager layout, all `NBUCKETS` counters from the
    /// start, merged and cleared in place. The growing histogram must read
    /// exactly like it.
    struct Eager {
        counts: Vec<u64>,
        total: u64,
        sum: u128,
        min: u64,
        max: u64,
    }

    impl Eager {
        fn new() -> Eager {
            Eager {
                counts: vec![0; NBUCKETS],
                total: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn record_n(&mut self, v: u64, n: u64) {
            if n == 0 {
                return;
            }
            self.counts[bucket_index(v)] += n;
            self.total += n;
            self.sum += v as u128 * n as u128;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn merge(&mut self, other: &Eager) {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += *b;
            }
            self.total += other.total;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        fn clear(&mut self) {
            *self = Eager::new();
        }

        fn percentile(&self, p: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            if p <= 0.0 {
                return self.min;
            }
            if p >= 100.0 {
                return self.max;
            }
            let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_value(i).clamp(self.min, self.max);
                }
            }
            self.max
        }
    }

    /// Every reading the growing histogram gives, against the eager one.
    fn assert_reads_like(h: &Histogram, e: &Eager, what: &str) {
        for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), e.percentile(p), "{what}: p{p}");
        }
        let s = h.summary();
        let min = if e.total == 0 { 0 } else { e.min };
        let mean = if e.total == 0 {
            0.0
        } else {
            e.sum as f64 / e.total as f64
        };
        assert_eq!(
            (s.count, s.min, s.max, s.p50, s.p90, s.p99, s.p999),
            (
                e.total,
                min,
                e.max,
                e.percentile(50.0),
                e.percentile(90.0),
                e.percentile(99.0),
                e.percentile(99.9)
            ),
            "{what}: summary"
        );
        assert_eq!(s.mean.to_bits(), mean.to_bits(), "{what}: mean");
        assert_eq!(h.sum(), e.sum, "{what}: sum");
    }

    /// Seeded values spanning every octave: a random bit length, then a
    /// random value of that length, repeated a random 0–3 times.
    fn draws(seed: u64, n: usize) -> Vec<(u64, u64)> {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        (0..n)
            .map(|_| {
                let bits = (next() % 65) as u32; // 0..=64
                let v = if bits == 0 { 0 } else { next() >> (64 - bits) };
                (v, next() >> 62)
            })
            .collect()
    }

    #[test]
    fn histogram_growth_reads_exactly_like_the_eager_layout() {
        for seed in 1..=8u64 {
            let (mut h, mut e) = (Histogram::new(), Eager::new());
            for (v, n) in draws(seed, 2_000) {
                if n == 1 {
                    h.record(v);
                } else {
                    h.record_n(v, n);
                }
                e.record_n(v, n);
            }
            assert_reads_like(&h, &e, "record/record_n");

            // Merge in both length orders: a short histogram (values < 64,
            // so at most 64 counters) into a long one and the reverse.
            let (mut short, mut short_e) = (Histogram::new(), Eager::new());
            for (v, n) in draws(seed + 100, 300) {
                short.record_n(v % 64, n);
                short_e.record_n(v % 64, n);
            }
            let mut long_into = h.clone();
            long_into.merge(&short);
            let mut short_into = short.clone();
            short_into.merge(&h);
            let mut merged_e = Eager::new();
            merged_e.merge(&e);
            merged_e.merge(&short_e);
            assert_reads_like(&long_into, &merged_e, "long.merge(short)");
            assert_reads_like(&short_into, &merged_e, "short.merge(long)");
            let mut empty_into = Histogram::new();
            empty_into.merge(&h);
            assert_reads_like(&empty_into, &e, "empty.merge(h)");

            // Clear, then record again: nothing of the old contents shows.
            h.clear();
            e.clear();
            assert_reads_like(&h, &e, "cleared");
            for (v, n) in draws(seed + 200, 500) {
                h.record_n(v >> 20, n);
                e.record_n(v >> 20, n);
            }
            assert_reads_like(&h, &e, "re-recorded after clear");
        }
    }

    #[test]
    fn histogram_holds_only_the_buckets_it_fills() {
        let mut h = Histogram::new();
        assert!(h.counts.is_empty(), "a new histogram allocates no buckets");
        for v in 0..64 {
            h.record(v);
        }
        h.record_n(63, 1_000);
        assert!(
            h.counts.len() <= 64,
            "values below 64 hold {} counters",
            h.counts.len()
        );
        h.record(1_000_000);
        assert_eq!(h.counts.len(), bucket_index(1_000_000) + 1);
        assert!(h.counts.len() < NBUCKETS);
    }

    #[test]
    fn series_sum_and_rate() {
        let mut ts = TimeSeries::new(1_000_000_000, SeriesKind::Sum); // 1 s buckets
        ts.record(0, 100.0);
        ts.record(500_000_000, 100.0);
        ts.record(1_500_000_000, 300.0);
        let rows = ts.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (0.0, 200.0));
        assert_eq!(rows[1], (1.0, 300.0));
        let rates = ts.rate_rows();
        assert_eq!(rates[0].1, 200.0);
    }

    #[test]
    fn series_mean_handles_gaps() {
        let mut ts = TimeSeries::new(100, SeriesKind::Mean);
        ts.record(0, 10.0);
        ts.record(50, 30.0);
        ts.record(250, 5.0);
        let rows = ts.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, 20.0);
        assert_eq!(rows[1].1, 0.0, "empty bucket reads 0");
        assert_eq!(rows[2].1, 5.0);
    }

    #[test]
    fn series_max() {
        let mut ts = TimeSeries::new(100, SeriesKind::Max);
        ts.record(10, 3.0);
        ts.record(20, 7.0);
        ts.record(30, 5.0);
        assert_eq!(ts.rows()[0].1, 7.0);
    }

    #[test]
    fn series_mean_over() {
        let mut ts = TimeSeries::new(100, SeriesKind::Sum);
        for i in 0..10u64 {
            ts.record(i * 100, i as f64);
        }
        assert!((ts.mean_over(0, 9) - 4.5).abs() < 1e-9);
        assert!((ts.mean_over(5, 100) - 7.0).abs() < 1e-9, "clamps hi");
        assert_eq!(ts.mean_over(50, 60), 0.0, "out of range");
    }

    #[test]
    fn counter_ops() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn fairness_index() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[1.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }
}
