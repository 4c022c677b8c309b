//! What every workload shares: the interface the measuring loop drives,
//! the loop itself (a fixed virtual span cut into equal slices, each timed
//! on the host clock), and the child's report with its output checks.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;
use crate::stats::{median, percentile, Fnv};
use crate::trace;

/// Measured slices per run (the issue asks for at least 30).
pub const SLICES: u64 = 40;
/// Virtual warm-up after the channels are up, inside `setup_s`.
pub const WARMUP_NS: u64 = 2_000_000;

/// Exact counts, by name. Counters are read before and after the measured
/// span and reported as the difference; gauges are read once at the end.
pub type Counts = BTreeMap<&'static str, u64>;

/// Closed-loop RPC accounting kept by the benchmark's own callbacks.
#[derive(Clone, Copy, Default)]
pub struct Progress {
    pub sent: u64,
    pub done: u64,
    pub send_errs: u64,
    pub error_replies: u64,
    /// Payload bytes (request + reply) of the completed RPCs.
    pub payload_bytes: u64,
}

/// A built, connected and warmed-up workload.
pub trait Workload {
    /// Run the simulation `virt_ns` of virtual time further.
    fn advance(&mut self, virt_ns: u64);
    fn progress(&self) -> Progress;
    /// Simulator events executed so far, and events pending now.
    fn events(&self) -> u64;
    fn pending(&self) -> u64;
    /// Monotonic per-layer counters.
    fn counters(&self) -> Counts;
    /// Per-layer values read once, after the measured span.
    fn gauges(&self) -> Counts;
    /// Drop the round-trip samples gathered so far (end of warm-up).
    fn reset_latencies(&mut self);
    /// Exact virtual round trips of the RPCs completed since the reset.
    fn latencies(&mut self) -> Vec<u64>;
    /// RPCs the pipelines may legitimately hold in flight at any instant.
    fn max_in_flight(&self) -> u64;
    /// Per-stage virtual latency rows and the telemetry event count, when
    /// the repo's span layer was installed for this run.
    fn telemetry(&self) -> Option<Telemetry> {
        None
    }
}

pub struct Telemetry {
    pub events: u64,
    /// `(stage, p50_ns, p99_ns)` in pipeline order.
    pub stages: Vec<(&'static str, u64, u64)>,
}

/// What the workload's own inputs say the counters must show.
pub struct Expect {
    /// `fabric.drops` and `rnic.retransmissions` must be 0.
    pub lossless: bool,
    /// Required share of request messages on the rendezvous path.
    pub large_msg_share: Option<f64>,
    /// Required `core.mux_pool_peak`.
    pub mux_pool_peak: Option<u64>,
    /// The stack models a host CPU (`model_cpu_ns_per_msg` is meaningful).
    pub models_cpu: bool,
}

/// One measured run of one workload in this process.
pub struct Measured {
    pub span_ns: u64,
    pub slice_wall_ns: Vec<f64>,
    pub slice_msgs: Vec<u64>,
    pub pending: Vec<u64>,
    pub progress: Progress,
    pub in_flight_at_start: u64,
    pub max_in_flight: u64,
    pub events: u64,
    pub counts: Counts,
    pub latencies: Vec<u64>,
    pub telemetry: Option<Telemetry>,
}

/// Drive `w` through `span_ns` of virtual time in [`SLICES`] equal slices.
pub fn measure(w: &mut dyn Workload, span_ns: u64) -> Measured {
    let slice_ns = (span_ns / SLICES).max(1);
    w.reset_latencies();
    let p0 = w.progress();
    let c0 = w.counters();
    let e0 = w.events();
    let mut m = Measured {
        span_ns: slice_ns * SLICES,
        slice_wall_ns: Vec::new(),
        slice_msgs: Vec::new(),
        pending: vec![w.pending()],
        progress: Progress::default(),
        in_flight_at_start: p0.sent - p0.done,
        max_in_flight: w.max_in_flight(),
        events: 0,
        counts: Counts::new(),
        latencies: Vec::new(),
        telemetry: None,
    };
    let mut done = p0.done;
    for _ in 0..SLICES {
        let t = Instant::now();
        trace::span(trace::Name::Slice, || w.advance(slice_ns));
        m.slice_wall_ns.push(t.elapsed().as_nanos() as f64);
        let now_done = w.progress().done;
        m.slice_msgs.push(now_done - done);
        done = now_done;
        m.pending.push(w.pending());
    }
    let p1 = w.progress();
    m.progress = Progress {
        sent: p1.sent - p0.sent,
        done: p1.done - p0.done,
        send_errs: p1.send_errs - p0.send_errs,
        error_replies: p1.error_replies - p0.error_replies,
        payload_bytes: p1.payload_bytes - p0.payload_bytes,
    };
    m.events = w.events() - e0;
    m.counts = w.counters();
    for (k, v) in &mut m.counts {
        *v = v.saturating_sub(c0.get(k).copied().unwrap_or(0));
    }
    m.counts.extend(w.gauges());
    m.latencies = w.latencies();
    m.telemetry = w.telemetry();
    m
}

impl Measured {
    fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0) as f64
    }

    /// RPCs that neither completed nor fit the pipelines at the end.
    fn lost(&self) -> u64 {
        let p = &self.progress;
        (self.in_flight_at_start + p.sent)
            .saturating_sub(p.done + p.error_replies + p.send_errs)
            .saturating_sub(self.max_in_flight)
    }

    pub fn failed(&self) -> u64 {
        self.progress.send_errs + self.progress.error_replies + self.lost()
    }

    fn wall_ns(&self) -> f64 {
        self.slice_wall_ns.iter().sum()
    }

    /// The named reasons this run's outputs are wrong; empty when correct.
    pub fn failed_checks(&self, expect: &Expect) -> Vec<String> {
        let mut bad = Vec::new();
        let last_quarter: u64 = self.slice_msgs[self.slice_msgs.len() * 3 / 4..]
            .iter()
            .sum();
        if last_quarter == 0 {
            bad.push("no-progress: 0 RPCs completed in the last quarter of the span".to_string());
        }
        if self.failed() > 0 {
            bad.push(format!(
                "ops-failed: {} send errors, {} error replies, {} lost",
                self.progress.send_errs,
                self.progress.error_replies,
                self.lost()
            ));
        }
        let mut zero = |key: &str| {
            if self.count(key) != 0.0 {
                bad.push(format!("{key} is {} (must be 0)", self.count(key)));
            }
        };
        zero("core.dead_channels");
        if expect.lossless {
            zero("fabric.drops");
            zero("rnic.retransmissions");
        }
        if let Some(want) = expect.large_msg_share {
            let got = self.large_msg_share();
            if (got - want).abs() > 1e-9 {
                bad.push(format!("core.large_msg_share is {got} (must be {want})"));
            }
        }
        if let Some(want) = expect.mux_pool_peak {
            if self.count("core.mux_pool_peak") != want as f64 {
                bad.push(format!(
                    "core.mux_pool_peak is {} (must be {want})",
                    self.count("core.mux_pool_peak")
                ));
            }
        }
        if self.latencies.len() < 1000 && self.slice_msgs.iter().sum::<u64>() >= 16_000 {
            bad.push(format!("only {} latency samples", self.latencies.len()));
        }
        bad
    }

    /// Share of *request* messages that took the rendezvous path.
    fn large_msg_share(&self) -> f64 {
        self.count("core.req_large")
            / (self.count("core.req_large") + self.count("core.req_small")).max(1.0)
    }

    /// Hash of every exact count of the run: equal digests mean the model
    /// did exactly the same thing.
    pub fn model_digest(&self) -> String {
        let mut h = Fnv::default();
        let mut put = |k: &str, v: u64| h.write(format!("{k}={v};").as_bytes());
        put("span_ns", self.span_ns);
        put("sent", self.progress.sent);
        put("done", self.progress.done);
        put("failed", self.failed());
        put("payload_bytes", self.progress.payload_bytes);
        put("events", self.events);
        for (k, v) in &self.counts {
            put(k, *v);
        }
        for (i, n) in self.slice_msgs.iter().enumerate() {
            put(&format!("slice{i}"), *n);
        }
        let mut lat = self.latencies.clone();
        lat.sort_unstable();
        for v in lat {
            h.write(&v.to_le_bytes());
        }
        format!("{:016x}", h.finish())
    }

    /// The end-to-end metrics this process can measure (`setup_s` and
    /// `peak_rss_mb` are added by the caller).
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let mut lat = self.latencies.clone();
        vec![
            (
                "sim_wall_ns_per_msg",
                self.wall_ns() / (self.progress.done as f64).max(1.0),
            ),
            (
                "model_msgs_per_s",
                self.progress.done as f64 / (self.span_ns as f64 / 1e9),
            ),
            ("model_lat_p50_ns", percentile(&mut lat, 50.0) as f64),
            ("model_lat_p99_ns", percentile(&mut lat, 99.0) as f64),
        ]
    }

    /// The per-layer metrics that are counts read from outside the layers.
    pub fn per_layer(&self, expect: &Expect) -> Vec<(&'static str, f64)> {
        let msgs = (self.progress.done as f64).max(1.0);
        let span_ms = self.span_ns as f64 / 1e6;
        let wall_s = self.wall_ns() / 1e9;
        let c = |k: &str| self.count(k);
        let per_msg = |k: &str| c(k) / msgs;
        let share = |part: f64, whole: f64| part / whole.max(1.0);
        let pending: Vec<f64> = self.pending.iter().map(|&p| p as f64).collect();
        let attempted = (self.in_flight_at_start + self.progress.sent) as f64;
        vec![
            (
                "model_cpu_ns_per_msg",
                if expect.models_cpu {
                    per_msg("core.cpu_busy_ns")
                } else {
                    0.0
                },
            ),
            ("ops_failed_share", share(self.failed() as f64, attempted)),
            ("sim.events_per_msg", self.events as f64 / msgs),
            ("sim.events_per_s", self.events as f64 / wall_s),
            ("sim.pending_p50", median(&pending)),
            ("sim.cross_per_msg", per_msg("sim.cross_sent")),
            ("sim.rounds_per_ms", c("sim.rounds") / span_ms),
            ("fabric.pkts_per_msg", per_msg("fabric.pkts")),
            (
                "fabric.wire_bytes_per_payload_byte",
                share(c("fabric.bytes"), self.progress.payload_bytes as f64),
            ),
            ("fabric.ecn_marked", c("fabric.ecn_marked")),
            ("fabric.pause_frames", c("fabric.pause_frames")),
            ("fabric.host_tx_pause", c("fabric.host_tx_pause")),
            ("fabric.drops", c("fabric.drops")),
            ("fabric.max_queue_bytes", c("fabric.max_queue_bytes")),
            ("rnic.doorbells_per_msg", per_msg("rnic.doorbells")),
            (
                "rnic.wrs_per_doorbell",
                share(c("rnic.posted_wrs"), c("rnic.doorbells")),
            ),
            (
                "rnic.qp_cache_miss_share",
                share(
                    c("rnic.qp_cache_misses"),
                    c("rnic.qp_cache_misses") + c("rnic.qp_cache_hits"),
                ),
            ),
            ("rnic.retransmissions", c("rnic.retransmissions")),
            ("rnic.seq_naks", c("rnic.seq_naks")),
            ("rnic.rnr_naks", c("rnic.rnr_naks")),
            ("rnic.cnps_per_ms", c("rnic.cnps") / span_ms),
            ("core.cq_polls_per_msg", per_msg("core.cq_polls")),
            (
                "core.cq_empty_poll_share",
                share(c("core.cq_empty_polls"), c("core.cq_polls")),
            ),
            ("core.window_stalls", c("core.window_stalls")),
            ("core.flowctl_queued", c("core.flowctl_queued")),
            (
                "core.standalone_acks_per_msg",
                per_msg("core.standalone_acks"),
            ),
            ("core.large_msg_share", self.large_msg_share()),
            ("core.keepalive_probes", c("core.keepalive_probes")),
            ("core.dead_channels", c("core.dead_channels")),
            (
                "core.goodput_gbps",
                self.progress.payload_bytes as f64 * 8.0 / self.span_ns as f64,
            ),
            ("core.mux_queued", c("core.mux_queued")),
            ("core.mux_deferred", c("core.mux_deferred")),
            ("core.mux_evictions", c("core.mux_evictions")),
            ("core.mux_pool_peak", c("core.mux_pool_peak")),
            (
                "core.recv_bytes_per_conn",
                share(c("core.recv_bytes"), c("core.conns")),
            ),
        ]
    }
}

/// `VmHWM` of this process in MB (0 where /proc is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `[(name, value)]` as a JSON object.
pub fn metrics_json<S: AsRef<str>>(rows: &[(S, f64)]) -> Value {
    let mut v = Value::obj();
    for (k, x) in rows {
        v.set(k.as_ref(), *x);
    }
    v
}
