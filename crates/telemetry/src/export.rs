//! Exporters: JSONL event logs, Chrome `trace_event` JSON, and series
//! helpers (event-rate bucketing).
//!
//! All output is a pure function of the event slice, so two same-seed runs
//! produce byte-identical files — the determinism contract extends to the
//! telemetry artifacts themselves (tested in `tests/determinism.rs`).

use serde::{write_json_str, Serialize};
use xrdma_sim::stats::{SeriesKind, TimeSeries};
use xrdma_sim::Dur;

use crate::event::{Event, EventKind};
use crate::span::SpanNode;

/// One compact JSON object per line, trailing newline included.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        ev.json_into(&mut out);
        out.push('\n');
    }
    out
}

/// Chrome `trace_event` JSON (the "JSON Array Format" wrapped in an object
/// with `traceEvents`), loadable in `chrome://tracing` or Perfetto.
///
/// Every event becomes a global instant (`"ph":"i"`); `dcqcn-rate` events
/// additionally become counter samples (`"ph":"C"`) so the rate/alpha
/// control loop renders as a continuous track. Timestamps are virtual
/// microseconds; pid/tid group by node/QP.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: &str, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(s);
    };
    let mut buf = String::new();
    for ev in events {
        let (pid, tid) = ev.kind.pid_tid();
        let ts = ev.t.as_micros_f64();
        buf.clear();
        buf.push_str("{\"name\":");
        write_json_str(ev.kind.name(), &mut buf);
        buf.push_str(",\"ph\":\"i\",\"s\":\"g\",\"pid\":");
        u64::from(pid).json_into(&mut buf);
        buf.push_str(",\"tid\":");
        u64::from(tid).json_into(&mut buf);
        buf.push_str(",\"ts\":");
        ts.json_into(&mut buf);
        buf.push_str(",\"args\":");
        // Reuse the JSONL payload as args: strip to an object of its own.
        let mut payload = String::new();
        ev.json_into(&mut payload);
        buf.push_str(&payload);
        buf.push('}');
        push(&buf, &mut out);
        if let EventKind::DcqcnRate {
            rate_gbps, alpha, ..
        } = ev.kind
        {
            buf.clear();
            buf.push_str("{\"name\":\"dcqcn\",\"ph\":\"C\",\"pid\":");
            u64::from(pid).json_into(&mut buf);
            buf.push_str(",\"ts\":");
            ts.json_into(&mut buf);
            buf.push_str(",\"args\":{\"rate_gbps\":");
            rate_gbps.json_into(&mut buf);
            buf.push_str(",\"alpha\":");
            alpha.json_into(&mut buf);
            buf.push_str("}}");
            push(&buf, &mut out);
        }
    }
    out.push_str("]}");
    out
}

/// Span trees as JSONL: one [`SpanNode`] object per line, in close order
/// (root first within each tree). Deterministic byte-for-byte across
/// same-seed runs, like [`to_jsonl`].
pub fn spans_to_jsonl(nodes: &[SpanNode]) -> String {
    let mut out = String::new();
    for n in nodes {
        n.json_into(&mut out);
        out.push('\n');
    }
    out
}

/// Chrome-trace track index per span-node kind: the root `op` plus each
/// pipeline stage gets its own lane, hops share a ninth.
fn span_track(name: &str) -> u64 {
    match name {
        "op" => 0,
        "submit" => 1,
        "doorbell" => 2,
        "wqe" => 3,
        "fabric" => 4,
        "rx" => 5,
        "cqe" => 6,
        "app" => 7,
        _ => 8, // hop
    }
}

/// Span trees as Chrome `trace_event` JSON: nested `B`/`E` duration pairs,
/// `pid` = origin node, one `tid` track per stage (hops on their own
/// track). Events are sorted by timestamp with `E` before `B` at equal
/// instants, so back-to-back spans on one track close before the next
/// opens; ties are broken by input order, keeping the output
/// deterministic.
pub fn spans_chrome_trace(nodes: &[SpanNode]) -> String {
    // (ts_ns, phase_rank, input_ordinal, rendered event)
    let mut evs: Vec<(u64, u8, usize, String)> = Vec::with_capacity(nodes.len() * 2);
    for (i, n) in nodes.iter().enumerate() {
        let pid = u64::from(n.node);
        let tid = span_track(n.name);
        let mut b = String::from("{\"name\":");
        match &n.label {
            Some(label) => write_json_str(&format!("{}:{}", n.name, label), &mut b),
            None => write_json_str(n.name, &mut b),
        }
        b.push_str(",\"ph\":\"B\",\"pid\":");
        pid.json_into(&mut b);
        b.push_str(",\"tid\":");
        tid.json_into(&mut b);
        b.push_str(",\"ts\":");
        (n.start_ns as f64 / 1000.0).json_into(&mut b);
        b.push_str(",\"args\":{\"id\":");
        n.id.json_into(&mut b);
        b.push_str(",\"qpn\":");
        u64::from(n.qpn).json_into(&mut b);
        b.push_str(",\"seq\":");
        u64::from(n.seq).json_into(&mut b);
        b.push_str(",\"bytes\":");
        n.bytes.json_into(&mut b);
        b.push_str("}}");
        evs.push((n.start_ns, 1, i, b));
        let mut e = String::from("{\"ph\":\"E\",\"pid\":");
        pid.json_into(&mut e);
        e.push_str(",\"tid\":");
        tid.json_into(&mut e);
        e.push_str(",\"ts\":");
        (n.end_ns as f64 / 1000.0).json_into(&mut e);
        e.push('}');
        // Zero-duration spans still open before they close.
        let rank = if n.end_ns == n.start_ns { 2 } else { 0 };
        evs.push((n.end_ns, rank, i, e));
    }
    evs.sort();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, (_, _, _, s)) in evs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(s);
    }
    out.push_str("]}");
    out
}

/// Events-per-second of the named kind, bucketed over `bucket` of virtual
/// time: the shape Figure 10 plots for CNP and TX-pause rates.
pub fn event_rate_series(events: &[Event], kind_name: &str, bucket: Dur) -> Vec<(f64, f64)> {
    let mut ts = TimeSeries::new(bucket.as_nanos().max(1), SeriesKind::Sum);
    for ev in events {
        if ev.kind.name() == kind_name {
            ts.record(ev.t.nanos(), 1.0);
        }
    }
    ts.rate_rows()
}

/// Count events per kind, deterministically ordered by kind name.
pub fn event_counts(events: &[Event]) -> Vec<(&'static str, u64)> {
    let mut map = std::collections::BTreeMap::new();
    for ev in events {
        *map.entry(ev.kind.name()).or_insert(0u64) += 1;
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrdma_sim::Time;

    fn evs() -> Vec<Event> {
        vec![
            Event {
                t: Time(1_000),
                kind: EventKind::CnpGenerated { node: 1, qpn: 4 },
            },
            Event {
                t: Time(2_000),
                kind: EventKind::DcqcnRate {
                    rate_gbps: 12.5,
                    alpha: 0.1,
                    cnps: 1,
                },
            },
            Event {
                t: Time(1_000_000_500),
                kind: EventKind::CnpGenerated { node: 1, qpn: 4 },
            },
        ]
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let s = to_jsonl(&evs());
        assert_eq!(s.lines().count(), 3);
        assert!(s.ends_with('\n'));
        assert!(s.lines().all(|l| l.starts_with("{\"t\":")));
    }

    #[test]
    fn chrome_trace_shape() {
        let s = chrome_trace(&evs());
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}"));
        // Instant events for all three, plus one counter sample.
        assert_eq!(s.matches("\"ph\":\"i\"").count(), 3);
        assert_eq!(s.matches("\"ph\":\"C\"").count(), 1);
        assert!(s.contains("\"pid\":1"));
    }

    #[test]
    fn rate_series_buckets_per_second() {
        let rows = event_rate_series(&evs(), "cnp", Dur::secs(1));
        assert_eq!(rows.len(), 2);
        // One CNP in each 1 s bucket → 1 event/s.
        assert_eq!(rows[0], (0.0, 1.0));
        assert_eq!(rows[1], (1.0, 1.0));
        assert!(event_rate_series(&evs(), "pfc-xoff", Dur::secs(1)).is_empty());
    }

    #[test]
    fn counts_by_kind() {
        assert_eq!(event_counts(&evs()), vec![("cnp", 2), ("dcqcn-rate", 1)],);
    }

    fn span_nodes() -> Vec<SpanNode> {
        let mk = |id, parent, name: &'static str, start, end| SpanNode {
            id,
            parent,
            name,
            label: None,
            start_ns: start,
            end_ns: end,
            node: 2,
            qpn: 5,
            seq: 1,
            bytes: 64,
        };
        vec![
            mk(11, None, "op", 1_000, 4_000),
            mk(21, Some(11), "submit", 1_000, 2_000),
            mk(22, Some(11), "app", 2_000, 4_000),
        ]
    }

    #[test]
    fn span_jsonl_one_line_per_node() {
        let s = spans_to_jsonl(&span_nodes());
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("{\"id\":11,\"parent\":null,\"name\":\"op\""));
        assert!(s.contains("\"parent\":11"));
    }

    #[test]
    fn span_chrome_trace_nests_b_e_pairs() {
        let s = spans_chrome_trace(&span_nodes());
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}"));
        assert_eq!(s.matches("\"ph\":\"B\"").count(), 3);
        assert_eq!(s.matches("\"ph\":\"E\"").count(), 3);
        // One track per stage: op=0, submit=1, app=7.
        assert!(s.contains("\"tid\":0"));
        assert!(s.contains("\"tid\":1"));
        assert!(s.contains("\"tid\":7"));
        // The submit E (ts=2) sorts before the app B (ts=2) on equal ts.
        let e_sub = s
            .find("{\"ph\":\"E\",\"pid\":2,\"tid\":1,\"ts\":2.0}")
            .unwrap();
        let b_app = s.find("\"tid\":7,\"ts\":2.0,").unwrap();
        assert!(e_sub < b_app, "E closes before the next B opens: {s}");
    }
}
