//! Sim-time metrics registry: named counters, gauges, histograms and
//! bucketed time series, all keyed by `BTreeMap` so every export is
//! deterministically ordered.
//!
//! The registry is deliberately value-oriented (no atomics, no interior
//! sharing beyond `RefCell`): a registry belongs to one hub which belongs
//! to one single-threaded [`World`](xrdma_sim::World), matching the
//! one-world-per-thread determinism contract.

use std::cell::RefCell;
use std::collections::BTreeMap;

use serde::{write_json_str, Serialize};
use xrdma_sim::stats::{Histogram, SeriesKind, TimeSeries};

/// Default bucket width for series created implicitly by
/// [`MetricsRegistry::series_record`]: 1 ms of virtual time.
pub const DEFAULT_BUCKET_NS: u64 = 1_000_000;

#[derive(Default)]
pub struct MetricsRegistry {
    counters: RefCell<BTreeMap<String, u64>>,
    gauges: RefCell<BTreeMap<String, f64>>,
    hists: RefCell<BTreeMap<String, Histogram>>,
    series: RefCell<BTreeMap<String, TimeSeries>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to the named monotonic counter (created at 0 on first use).
    pub fn counter_add(&self, name: &str, n: u64) {
        *self
            .counters
            .borrow_mut()
            .entry(name.to_string())
            .or_insert(0) += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.gauges.borrow_mut().insert(name.to_string(), v);
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.borrow().get(name).copied()
    }

    /// Record one observation into the named histogram.
    pub fn hist_record(&self, name: &str, v: u64) {
        self.hists
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Declare a series with an explicit bucket width and combination rule.
    /// Re-declaring an existing series is a no-op (first declaration wins,
    /// so a sampler racing a manual declaration stays deterministic).
    pub fn declare_series(&self, name: &str, bucket_ns: u64, kind: SeriesKind) {
        self.series
            .borrow_mut()
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(bucket_ns, kind));
    }

    /// Record `(t_ns, v)` into the named series, creating it with
    /// [`DEFAULT_BUCKET_NS`] / [`SeriesKind::Mean`] if never declared.
    pub fn series_record(&self, name: &str, t_ns: u64, v: f64) {
        self.series
            .borrow_mut()
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(DEFAULT_BUCKET_NS, SeriesKind::Mean))
            .record(t_ns, v);
    }

    /// `(bucket_start_seconds, value)` rows of the named series.
    pub fn series_rows(&self, name: &str) -> Vec<(f64, f64)> {
        self.series
            .borrow()
            .get(name)
            .map(|s| s.rows())
            .unwrap_or_default()
    }

    /// Sample every current gauge into a same-named series at `t_ns`. The
    /// hub's periodic sampler calls this to turn point-in-time gauges into
    /// deterministic time series.
    pub fn sample_gauges(&self, t_ns: u64) {
        // Collect first: series_record borrows `series`, not `gauges`, but
        // a user callback reading gauges mid-iteration must never observe a
        // held borrow.
        let snap: Vec<(String, f64)> = self
            .gauges
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for (name, v) in snap {
            self.series_record(&name, t_ns, v);
        }
    }
}

// Deterministic JSON: BTreeMap ordering everywhere, histograms as their
// fixed-point summaries, series as [t, v] pair arrays.
impl Serialize for MetricsRegistry {
    fn json_into(&self, out: &mut String) {
        fn obj<V: Serialize>(out: &mut String, key: &str, map: &BTreeMap<String, V>) {
            write_json_str(key, out);
            out.push_str(":{");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(k, out);
                out.push(':');
                v.json_into(out);
            }
            out.push('}');
        }
        out.push('{');
        obj(out, "counters", &self.counters.borrow());
        out.push(',');
        obj(out, "gauges", &self.gauges.borrow());
        out.push(',');
        let summaries: BTreeMap<String, _> = self
            .hists
            .borrow()
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect();
        obj(out, "histograms", &summaries);
        out.push(',');
        let rows: BTreeMap<String, Vec<(f64, f64)>> = self
            .series
            .borrow()
            .iter()
            .map(|(k, s)| (k.clone(), s.rows()))
            .collect();
        obj(out, "series", &rows);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let m = MetricsRegistry::new();
        m.counter_add("cnps", 3);
        m.counter_add("cnps", 2);
        assert_eq!(m.counter("cnps"), 5);
        assert_eq!(m.counter("missing"), 0);
        m.gauge_set("rate", 25.0);
        m.gauge_set("rate", 12.5);
        assert_eq!(m.gauge("rate"), Some(12.5));
    }

    #[test]
    fn series_declared_and_implicit() {
        let m = MetricsRegistry::new();
        m.declare_series("tx", 1_000, SeriesKind::Sum);
        m.series_record("tx", 500, 10.0);
        m.series_record("tx", 600, 10.0);
        m.series_record("tx", 1_500, 7.0);
        assert_eq!(m.series_rows("tx"), vec![(0.0, 20.0), (1e-6, 7.0)]);
        // Implicit creation uses the default Mean series.
        m.series_record("lat", 0, 4.0);
        m.series_record("lat", 1, 6.0);
        assert_eq!(m.series_rows("lat"), vec![(0.0, 5.0)]);
    }

    #[test]
    fn gauge_sampling_builds_series() {
        let m = MetricsRegistry::new();
        m.gauge_set("depth", 3.0);
        m.sample_gauges(0);
        m.gauge_set("depth", 9.0);
        m.sample_gauges(DEFAULT_BUCKET_NS);
        let rows = m.series_rows("depth");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, 3.0);
        assert_eq!(rows[1].1, 9.0);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let m = MetricsRegistry::new();
        m.counter_add("z", 1);
        m.counter_add("a", 2);
        m.hist_record("lat", 100);
        let a = serde_json::to_string(&m).unwrap();
        let b = serde_json::to_string(&m).unwrap();
        assert_eq!(a, b);
        assert!(a.find("\"a\"").unwrap() < a.find("\"z\"").unwrap());
        assert!(a.contains("\"histograms\""));
    }
}
