//! The parent side: the metric tables, one workload's children (setup
//! samples, the measured run, the traced pass, the ladder, the shard
//! re-run), the driver's single-workload mode and the whole suite.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::child::{spec, Spec, WORKLOADS};
use crate::harness::{SLICES, WARMUP_NS};
use crate::json::{pretty, Value};
use crate::stats::quantile;

/// `(name, unit, better, bound)`. Units: `s`/`ns`/`MB` are host
/// quantities; `vns` and `1/vs` are in *virtual* (simulated) time, which
/// repeats exactly for a seed. `bound` is the share of the parent's median
/// by which the metric may worsen (BENCHMARK.json carries the same values):
/// at least three times the widest spread seen over ten seeds on the
/// reference container, where identical work drifts by 5 % over a minute.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("sim_wall_ns_per_msg", "ns", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("model_msgs_per_s", "1/vs", "higher", 0.02),
    ("model_lat_p50_ns", "vns", "lower", 0.02),
    ("model_lat_p99_ns", "vns", "lower", 0.06),
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    ("model_cpu_ns_per_msg", "vns", "lower"),
    ("ops_failed_share", "ratio", "lower"),
    ("sim.events_per_msg", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.pending_p50", "count", "lower"),
    ("sim.sched_ns_per_event", "ns", "lower"),
    ("sim.cross_per_msg", "count", "lower"),
    ("sim.rounds_per_ms", "1/vms", "lower"),
    ("sim.shard_speedup", "ratio", "higher"),
    ("fabric.pkts_per_msg", "count", "lower"),
    ("fabric.wire_bytes_per_payload_byte", "ratio", "lower"),
    ("fabric.ecn_marked", "count", "lower"),
    ("fabric.pause_frames", "count", "lower"),
    ("fabric.host_tx_pause", "count", "lower"),
    ("fabric.drops", "count", "lower"),
    ("fabric.max_queue_bytes", "B", "lower"),
    ("fabric.ns_per_pkt_hop", "ns", "lower"),
    ("rnic.doorbells_per_msg", "count", "lower"),
    ("rnic.wrs_per_doorbell", "ratio", "higher"),
    ("rnic.qp_cache_miss_share", "ratio", "lower"),
    ("rnic.retransmissions", "count", "lower"),
    ("rnic.seq_naks", "count", "lower"),
    ("rnic.rnr_naks", "count", "lower"),
    ("rnic.cnps_per_ms", "1/vms", "lower"),
    ("rnic.ns_per_wr", "ns", "lower"),
    ("rnic.ns_per_pkt", "ns", "lower"),
    ("rnic.mr_write_ns_per_kib", "ns", "lower"),
    ("core.cq_polls_per_msg", "count", "lower"),
    ("core.cq_empty_poll_share", "ratio", "lower"),
    ("core.window_stalls", "count", "lower"),
    ("core.flowctl_queued", "count", "lower"),
    ("core.standalone_acks_per_msg", "count", "lower"),
    ("core.large_msg_share", "ratio", "lower"),
    ("core.keepalive_probes", "count", "lower"),
    ("core.dead_channels", "count", "lower"),
    ("core.goodput_gbps", "Gb/vs", "higher"),
    ("core.mux_queued", "count", "lower"),
    ("core.mux_deferred", "count", "lower"),
    ("core.mux_evictions", "count", "lower"),
    ("core.mux_pool_peak", "count", "higher"),
    ("core.recv_bytes_per_conn", "B", "lower"),
    ("core.submit_ns_per_call", "ns", "lower"),
    ("app.callback_ns_per_msg", "ns", "lower"),
    ("telemetry.overhead_ratio", "ratio", "lower"),
    ("telemetry.events_per_msg", "count", "lower"),
    ("telemetry.stage_p50_ns.submit", "vns", "lower"),
    ("telemetry.stage_p99_ns.submit", "vns", "lower"),
    ("telemetry.stage_p50_ns.doorbell", "vns", "lower"),
    ("telemetry.stage_p99_ns.doorbell", "vns", "lower"),
    ("telemetry.stage_p50_ns.wqe", "vns", "lower"),
    ("telemetry.stage_p99_ns.wqe", "vns", "lower"),
    ("telemetry.stage_p50_ns.fabric", "vns", "lower"),
    ("telemetry.stage_p99_ns.fabric", "vns", "lower"),
    ("telemetry.stage_p50_ns.rx", "vns", "lower"),
    ("telemetry.stage_p99_ns.rx", "vns", "lower"),
    ("telemetry.stage_p50_ns.cqe", "vns", "lower"),
    ("telemetry.stage_p99_ns.cqe", "vns", "lower"),
    ("telemetry.stage_p50_ns.app", "vns", "lower"),
    ("telemetry.stage_p99_ns.app", "vns", "lower"),
];

/// Cold set-ups timed on each side of the measured run; `setup_s` is the
/// first quartile of all of them.
const SETUP_SAMPLES_PER_SIDE: usize = 6;
/// Measured children per run: the same span from the same seed, each in a
/// fresh process.
const REPS: usize = 3;
/// The per-layer pass runs at this fraction of the measured span, but not
/// under one warm-up's worth of virtual time: shorter than that (`--quick`)
/// `mux_scale`, whose round trip is 7 ms, completes nothing in a slice.
const TRACED_SPAN_DIV: u64 = 10;
/// `--seconds` of a full-size run: the ladder's iteration counts and the
/// committed baseline are sized for it.
pub const FULL_SECONDS: f64 = 10.0;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Where trace files and `latest.json` go.
    pub out_dir: PathBuf,
}

/// The content of `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Value {
    fn object(fields: &[(&str, Value)]) -> Value {
        Value::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }
    let workloads = WORKLOADS
        .iter()
        .map(|w| object(&[("name", w.name.into()), ("why", w.why.into())]));
    let end_to_end = END_TO_END.iter().map(|&(name, unit, better, bound)| {
        object(&[
            ("name", name.into()),
            ("unit", unit.into()),
            ("better", better.into()),
            ("bound", bound.into()),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|&(name, unit, better)| {
        object(&[
            ("name", name.into()),
            ("unit", unit.into()),
            ("better", better.into()),
        ])
    });
    object(&[
        ("command", vec!["bash", "benchmark/run.sh"].into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", FULL_SECONDS.into()),
        ("workloads", Value::Arr(workloads.collect())),
        ("end_to_end", Value::Arr(end_to_end.collect())),
        ("per_layer", Value::Arr(per_layer.collect())),
    ])
}

fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.with_file_name(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built (run benchmark/run.sh)",
            path.display()
        ))
    }
}

/// Run one child to its end and parse the JSON on its last stdout line.
fn child(exe: &Path, args: &[String]) -> Result<Value, String> {
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("child printed nothing")?;
    Value::parse(last).map_err(|e| format!("child {args:?} printed bad JSON: {e}"))
}

fn workload_args(w: &Spec, seed: u64, span_ns: u64) -> Vec<String> {
    [
        "child",
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--span-ns",
        &span_ns.to_string(),
    ]
    .map(str::to_string)
    .to_vec()
}

fn span_ns(w: &Spec, seconds: f64) -> u64 {
    ((seconds * w.virt_ns_per_host_s as f64) as u64).max(SLICES)
}

/// The end-to-end pass of one workload: cold set-up-only children, then
/// [`REPS`] measured children doing identical work, then set-ups again.
///
/// On this host timing noise only ever adds, and it comes in bursts of
/// about a second (after idle one vCPU runs allocation-heavy work at half
/// speed for a while). So each slice keeps its fastest repetition — slice
/// *i* of every child simulated exactly the same events, which is checked
/// through `model_digest` — and `setup_s` is the first quartile of samples
/// spread over the whole pass. Returns the first child's report with
/// `slice_wall_ns`, `sim_wall_ns_per_msg`, `peak_rss_mb` (the median) and
/// `setup_s` so replaced.
pub fn end_to_end_pass(w: &Spec, o: &Opts) -> Result<Value, String> {
    let exe = sibling("xr-bench")?;
    let mut setups = Vec::new();
    let sample_setups = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_SAMPLES_PER_SIDE {
            let mut args = workload_args(w, o.seed, 0);
            args.push("--setup-only".to_string());
            setups.push(child(&exe, &args)?.num("setup_s").ok_or("no setup_s")?);
        }
        Ok(())
    };
    sample_setups(&mut setups)?;
    let args = workload_args(w, o.seed, span_ns(w, o.seconds));
    let mut reports = Vec::new();
    for _ in 0..REPS {
        reports.push(child(&exe, &args)?);
    }
    sample_setups(&mut setups)?;

    let mut walls = reports[0].nums("slice_wall_ns");
    for r in &reports[1..] {
        if r.str("model_digest") != reports[0].str("model_digest") {
            return Err(format!(
                "{}: the same seed gave two model digests: the simulator is not deterministic",
                w.name
            ));
        }
        for (w, again) in walls.iter_mut().zip(r.nums("slice_wall_ns")) {
            *w = w.min(again);
        }
    }
    let rss: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.get("end_to_end")?.num("peak_rss_mb"))
        .collect();
    let mut report = reports.swap_remove(0);
    let rpcs = report.num("rpcs").unwrap_or(0.0).max(1.0);
    let mut e2e = Value::obj();
    for (k, v) in report.get("end_to_end").map(Value::fields).unwrap_or(&[]) {
        match k.as_str() {
            "setup_s" => e2e.set(k, quantile(&setups, 0.25)),
            "sim_wall_ns_per_msg" => e2e.set(k, walls.iter().sum::<f64>() / rpcs),
            "peak_rss_mb" => e2e.set(k, quantile(&rss, 0.5)),
            _ => e2e.set(k, v.clone()),
        };
    }
    if let Value::Obj(fields) = &mut report {
        fields.retain(|(k, _)| {
            !["end_to_end", "setup_s", "slice_wall_ns", "wall_s"].contains(&k.as_str())
        });
    }
    report
        .set("reps", REPS as u64)
        .set("slice_wall_ns", walls)
        .set("setup_s_samples", setups)
        .set("end_to_end", e2e);
    Ok(report)
}

/// The ladder, once: `(name, value)` rows.
pub fn ladder_pass(o: &Opts) -> Result<Value, String> {
    let args = [
        "ladder",
        "--seed",
        &o.seed.to_string(),
        "--scale",
        &(o.seconds / FULL_SECONDS).to_string(),
    ]
    .map(str::to_string);
    child(&sibling("xr-bench")?, &args)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The per-layer pass of one workload at a tenth of its span: an untraced
/// child (the counts), a traced child on the `telemetry` build (stages,
/// events, host-time spans → `<out>/<workload>.trace.json`), and for
/// `lane_incast` one more child at `min(nproc, 4)` shards. `ladder` is the
/// result of [`ladder_pass`]; `full`, when the end-to-end pass ran too, is
/// its report, whose counts over the whole measured span replace the
/// tenth-span ones. Every name of [`PER_LAYER`] is present.
pub fn per_layer_pass(
    w: &Spec,
    o: &Opts,
    ladder: &Value,
    full: Option<&Value>,
) -> Result<Value, String> {
    let span = (span_ns(w, o.seconds) / TRACED_SPAN_DIV).max(WARMUP_NS);
    let plain = child(&sibling("xr-bench")?, &workload_args(w, o.seed, span))?;
    let trace_file = o.out_dir.join(format!("{}.trace.json", w.name));
    let mut args = workload_args(w, o.seed, span);
    args.extend(["--traced".to_string(), "--trace-out".to_string()]);
    args.push(trace_file.to_string_lossy().into_owned());
    let traced = child(&sibling("xr-bench-traced")?, &args)?;

    let wall = |r: &Value| r.get("end_to_end")?.num("sim_wall_ns_per_msg");
    // Later sources override earlier ones.
    let mut found: Vec<(String, f64)> = Vec::new();
    let mut take = |from: Option<&Value>, only: &dyn Fn(&str) -> bool| {
        for (k, v) in from.map(Value::fields).unwrap_or(&[]) {
            if let (true, Value::Num(n)) = (only(k), v) {
                found.retain(|(have, _)| have != k);
                found.push((k.clone(), *n));
            }
        }
    };
    take(plain.get("per_layer"), &|_| true);
    take(full.and_then(|f| f.get("per_layer")), &|_| true);
    take(traced.get("per_layer"), &|k| {
        k.starts_with("telemetry.")
            || k == "core.submit_ns_per_call"
            || k == "app.callback_ns_per_msg"
    });
    take(Some(ladder), &|_| true);
    if let (Some(t), Some(p)) = (wall(&traced), wall(&plain)) {
        found.push(("telemetry.overhead_ratio".to_string(), t / p));
    }

    let mut notes = Vec::new();
    if w.name == "lane_incast" {
        let shards = nproc().min(4);
        if shards < 2 {
            notes.push(
                "sim.shard_speedup omitted: nproc < 2, no second core to show it".to_string(),
            );
        } else {
            let mut args = workload_args(w, o.seed, span);
            args.extend(["--shards".to_string(), shards.to_string()]);
            let sharded = child(&sibling("xr-bench")?, &args)?;
            if sharded.str("model_digest") != plain.str("model_digest") {
                return Err(format!(
                    "lane_incast at {shards} shards diverged from 1 shard"
                ));
            }
            if let (Some(one), Some(many)) = (plain.num("wall_s"), sharded.num("wall_s")) {
                found.push(("sim.shard_speedup".to_string(), one / many));
                notes.push(format!(
                    "sim.shard_speedup measured at {shards} shards on {} cores",
                    nproc()
                ));
            }
        }
    }

    let mut layer = Value::obj();
    for (name, _, _) in PER_LAYER {
        let v = found
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v);
        layer.set(name, v);
    }
    let mut checks: Vec<Value> = Vec::new();
    for r in [&plain, &traced] {
        checks.extend(
            r.get("checks_failed")
                .map(Value::items)
                .unwrap_or(&[])
                .iter()
                .cloned(),
        );
    }
    let mut out = Value::obj();
    out.set("span_ns", span)
        .set("attempted", plain.num("attempted").unwrap_or(0.0))
        .set("failed", plain.num("failed").unwrap_or(0.0))
        .set("model_digest", plain.str("model_digest").unwrap_or(""))
        .set(
            "traced_model_digest",
            traced.str("model_digest").unwrap_or(""),
        )
        .set("host_spans", traced.num("host_spans").unwrap_or(0.0))
        .set("trace_file", trace_file.to_string_lossy().into_owned())
        .set("notes", notes)
        .set("checks_failed", Value::Arr(checks))
        .set("per_layer", layer);
    Ok(out)
}

fn print_metrics(workload: &str, metrics: &Value, unit_of: &dyn Fn(&str) -> &'static str) {
    for (k, v) in metrics.fields() {
        println!("{workload} {k} {} {v}", unit_of(k));
    }
}

fn e2e_unit(name: &str) -> &'static str {
    END_TO_END.iter().find(|m| m.0 == name).map_or("?", |m| m.1)
}

fn layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.0 == name).map_or("?", |m| m.1)
}

fn failed_checks(report: &Value) -> Vec<String> {
    report
        .get("checks_failed")
        .map(Value::items)
        .unwrap_or(&[])
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        })
        .collect()
}

/// The driver's mode: one workload, one pass, the result object as the
/// last line of stdout (`metrics` holds `{name: {value, unit}}`).
pub fn run_one(workload: &str, trace: bool, o: &Opts) -> Result<i32, String> {
    let w = spec(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let (report, metrics, unit_of): (Value, Value, fn(&str) -> &'static str) = if trace {
        let r = per_layer_pass(w, o, &ladder_pass(o)?, None)?;
        let m = r.get("per_layer").cloned().unwrap_or(Value::obj());
        (r, m, layer_unit)
    } else {
        let r = end_to_end_pass(w, o)?;
        let m = r.get("end_to_end").cloned().unwrap_or(Value::obj());
        (r, m, e2e_unit)
    };
    for note in report.get("notes").map(Value::items).unwrap_or(&[]) {
        eprintln!("xr-bench: {note}");
    }
    let failed = failed_checks(&report);
    for reason in &failed {
        eprintln!("xr-bench: {workload}: output check failed: {reason}");
    }
    print_metrics(workload, &metrics, &unit_of);
    println!(
        "{workload} model_digest {}",
        report.str("model_digest").unwrap_or("")
    );
    let mut tagged = Value::obj();
    for (k, v) in metrics.fields() {
        let mut m = Value::obj();
        m.set("value", v.clone()).set("unit", unit_of(k));
        tagged.set(k, m);
    }
    let mut result = Value::obj();
    result
        .set("correct", failed.is_empty())
        .set("attempted", report.num("attempted").unwrap_or(0.0).max(1.0))
        .set("failed", report.num("failed").unwrap_or(0.0))
        .set("metrics", tagged);
    println!("{result}");
    Ok(0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Paper anchors beside the modelled values they correspond to (ungated).
/// Where the repo holds no reference the model is unvalidated.
fn reference(workloads: &Value) -> Value {
    let metric = |w: &str, section: &str, name: &str| workloads.get(w)?.get(section)?.num(name);
    let anchored = |what: &str, paper: f64, model: Option<f64>, source: &str| {
        let mut v = Value::obj();
        v.set("anchor", what)
            .set("paper", paper)
            .set("source", source);
        match model {
            Some(m) => v
                .set("model", m)
                .set("model_err_vs_paper_pct", (m - paper) / paper * 100.0),
            None => v.set("model", Value::Null),
        };
        v
    };
    let mut r = Value::obj();
    r.set(
        "pingpong_qd1.model_lat_p50_ns",
        anchored(
            "64 B round trip at QD1, as twice the paper's one-way latency (5-6 us, midpoint 5.5 us)",
            11_000.0,
            metric("pingpong_qd1", "end_to_end", "model_lat_p50_ns"),
            "X-RDMA (CLUSTER'19) Fig. 7 / abstract",
        ),
    )
    .set(
        "incast_bulk.core.goodput_gbps",
        anchored(
            "sink goodput against the 25 Gb/s line rate of the paper's ConnectX-4 Lx ports",
            25.0,
            metric("incast_bulk", "per_layer", "core.goodput_gbps"),
            "X-RDMA (CLUSTER'19) testbed description",
        ),
    )
    .set("rpc_fanout", "unvalidated: the repo holds no reference for a 32-way 64 B fan-out")
    .set("mux_scale", "unvalidated: connection multiplexing is this repo's extension, not in the paper")
    .set("lane_incast", "unvalidated: the lane stack has no reference of its own");
    r
}

/// The whole benchmark: every workload's end-to-end pass, the ladder
/// once, every workload's per-layer pass; prints every metric and writes
/// `<out>/latest.json`. Exit code 1 when an output check failed.
pub fn run_suite(o: &Opts, quick: bool) -> Result<i32, String> {
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let mut workloads = Value::obj();
    let mut bad = 0usize;
    let mut note_checks = |w: &str, report: &Value| {
        for reason in failed_checks(report) {
            eprintln!("xr-bench: {w}: output check failed: {reason}");
            bad += 1;
        }
    };
    let mut reports = Vec::new();
    for w in &WORKLOADS {
        let r = end_to_end_pass(w, o)?;
        print_metrics(
            w.name,
            r.get("end_to_end").unwrap_or(&Value::Null),
            &e2e_unit,
        );
        println!(
            "{} model_digest {}",
            w.name,
            r.str("model_digest").unwrap_or("")
        );
        note_checks(w.name, &r);
        reports.push(r);
    }
    let ladder = ladder_pass(o)?;
    for (w, mut r) in WORKLOADS.iter().zip(reports) {
        let layer = per_layer_pass(w, o, &ladder, Some(&r))?;
        print_metrics(
            w.name,
            layer.get("per_layer").unwrap_or(&Value::Null),
            &layer_unit,
        );
        for note in layer.get("notes").map(Value::items).unwrap_or(&[]) {
            println!("{} note {note}", w.name);
        }
        note_checks(w.name, &layer);
        let per_layer = layer.get("per_layer").cloned().unwrap_or(Value::obj());
        let mut pass = layer;
        if let Value::Obj(fields) = &mut pass {
            fields.retain(|(k, _)| k != "per_layer");
        }
        if let Value::Obj(fields) = &mut r {
            fields.retain(|(k, _)| k != "per_layer");
        }
        r.set("why", w.why)
            .set("per_layer", per_layer)
            .set("per_layer_pass", pass);
        workloads.set(w.name, r);
    }
    let mut host = Value::obj();
    host.set("nproc", nproc() as u64)
        .set("cpu_model", cpu_model());
    let mut doc = Value::obj();
    doc.set("schema", "xr-bench/1")
        .set("seed", o.seed)
        .set("seconds", o.seconds)
        .set("quick", quick)
        .set("host", host)
        .set("reference", reference(&workloads))
        .set("workloads", workloads);
    let path = o.out_dir.join("latest.json");
    std::fs::write(&path, pretty(&doc)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if bad == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed BENCHMARK.json is exactly what the tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Value::parse(&text).expect("valid JSON"), manifest());
    }

    #[test]
    fn names_are_unique_and_whys_fit() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
