//! One workload in this process, on this thread: build → connect → warm
//! up (`setup_s`), measure, check, report as one JSON line on stdout.

use std::time::Instant;

use crate::harness::{measure, metrics_json, peak_rss_mb, Expect, Measured, Workload};
use crate::json::Value;
use crate::lane::{self, lane_incast, PROBE_INTERVAL_NS};
use crate::{serial, trace};

/// A workload and why it is in the set. `virt_ns_per_host_s` sizes the
/// measured span: `--seconds` × this is the virtual time one repetition
/// simulates, chosen so that the three repetitions of a run of the code as
/// first measured (2-core reference container) take about `--seconds` of
/// host time together. Two commits given the same `--seconds` do identical
/// work.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub virt_ns_per_host_s: u64,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "pingpong_qd1",
        why: "QD1 64 B echo on a pair: latency is the bare sum of per-message core/rnic stages, no queueing, fabric and calendar nearly idle",
        virt_ns_per_host_s: 14_300_000,
    },
    Spec {
        name: "rpc_fanout",
        why: "1 client x 32 servers x depth 8, 64 B: message-rate bound on the client's shared CQ and doorbell path; bypasses mux/SRQ",
        virt_ns_per_host_s: 5_700_000,
    },
    Spec {
        name: "incast_bulk",
        why: "16 senders x 128 KiB rendezvous into one host across 3 switch hops with PFC+DCQCN: fabric queues and the rnic per-packet engine dominate",
        virt_ns_per_host_s: 130_000_000,
    },
    Spec {
        name: "mux_scale",
        why: "100 K logical channels over a 64-slot ChannelMux pool with SRQ, 2048 driven: core::mux, SRQ and QP-context cache; setup and RSS carry the scale",
        virt_ns_per_host_s: 5_800_000,
    },
    Spec {
        name: "lane_incast",
        why: "the second stack on the threaded engine (ShardWorld, *::lane), 256 hosts, 48 KiB incasts per rack: serial-stack changes must not move it",
        virt_ns_per_host_s: 20_000_000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub span_ns: u64,
    /// Stop after set-up and report `setup_s` alone.
    pub setup_only: bool,
    /// Record the benchmark's host-time spans and install the repo's
    /// telemetry hub (which records only in the `telemetry` build).
    pub traced: bool,
    pub shards: usize,
    /// Where the host-time spans go when `traced`.
    pub trace_out: Option<String>,
}

fn build(a: &ChildArgs) -> Result<(Box<dyn Workload>, Expect), String> {
    let serial = |mut w: serial::Serial| -> Box<dyn Workload> {
        if a.traced {
            w.install_telemetry();
        }
        Box::new(w)
    };
    Ok(match a.workload.as_str() {
        "pingpong_qd1" => (serial(serial::pingpong_qd1(a.seed)), serial::LOSSLESS_SMALL),
        "rpc_fanout" => (serial(serial::rpc_fanout(a.seed)), serial::LOSSLESS_SMALL),
        "incast_bulk" => (serial(serial::incast_bulk(a.seed)), serial::LOSSLESS_BULK),
        "mux_scale" => (serial(serial::mux_scale(a.seed)), serial::LOSSLESS_MUX),
        "lane_incast" => (
            Box::new(lane_incast(a.seed, a.shards, PROBE_INTERVAL_NS)),
            lane::EXPECT,
        ),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Run the child; the report, or the reason it could not run.
pub fn run(a: &ChildArgs, process_start: Instant) -> Result<Value, String> {
    let (mut w, expect) = build(a)?;
    if a.traced {
        trace::enable();
    }
    let setup_s = process_start.elapsed().as_secs_f64();
    let mut out = Value::obj();
    out.set("workload", a.workload.as_str())
        .set("seed", a.seed)
        .set("setup_s", setup_s);
    if a.setup_only {
        return Ok(out);
    }
    let m = measure(w.as_mut(), a.span_ns);
    let spans = trace::take();
    drop(w);
    Ok(report(out, a, &m, &expect, setup_s, spans))
}

fn report(
    mut out: Value,
    a: &ChildArgs,
    m: &Measured,
    expect: &Expect,
    setup_s: f64,
    spans: Option<trace::SpanLog>,
) -> Value {
    let mut e2e = vec![("setup_s", setup_s)];
    e2e.extend(m.end_to_end());
    e2e.push(("peak_rss_mb", peak_rss_mb()));
    let mut layer: Vec<(String, f64)> = m
        .per_layer(expect)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let mut push = |name: &str, v: f64| layer.push((name.to_string(), v));
    let msgs = (m.progress.done as f64).max(1.0);
    if let Some(t) = &m.telemetry {
        push("telemetry.events_per_msg", t.events as f64 / msgs);
        // The seven pipeline stages; the hub's closing `e2e` row is
        // `model_lat_*` measured its own way and is not reported twice.
        for (stage, p50, p99) in t.stages.iter().filter(|s| s.0 != "e2e") {
            push(&format!("telemetry.stage_p50_ns.{stage}"), *p50 as f64);
            push(&format!("telemetry.stage_p99_ns.{stage}"), *p99 as f64);
        }
    }
    if let Some(log) = &spans {
        let s = log.summary();
        push("core.submit_ns_per_call", s.submit_ns_per_call);
        push("app.callback_ns_per_msg", s.callback_self_ns as f64 / msgs);
        out.set("host_spans", s.spans as u64);
        if let Some(path) = &a.trace_out {
            if let Err(e) = std::fs::write(path, log.to_json().to_string()) {
                eprintln!("xr-bench: cannot write {path}: {e}");
            }
        }
    }
    out.set("span_ns", m.span_ns)
        .set("slices", m.slice_msgs.len() as u64)
        .set("traced", a.traced)
        .set("shards", a.shards as u64)
        .set("rpcs", m.progress.done)
        .set("attempted", m.in_flight_at_start + m.progress.sent)
        .set("failed", m.failed())
        .set("lat_samples", m.latencies.len() as u64)
        .set("wall_s", m.slice_wall_ns.iter().sum::<f64>() / 1e9)
        .set("slice_wall_ns", m.slice_wall_ns.clone())
        .set("slice_msgs", m.slice_msgs.clone())
        .set("model_digest", m.model_digest())
        .set("checks_failed", m.failed_checks(expect))
        .set("end_to_end", metrics_json(&e2e))
        .set("per_layer", metrics_json(&layer));
    out
}
