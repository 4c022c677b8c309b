//! `latbreak` — per-stage latency breakdown across message size × queue
//! depth (the causal-span tentpole's headline experiment, DESIGN.md §8).
//!
//! One client echoes size-`S` RPCs against one server with `D` requests
//! in flight; the responses are the same size, so every traced operation
//! at a sweep point is a size-`S` message. The telemetry hub is installed
//! *after* connection setup so the histograms see steady-state traffic
//! only. Per point the harness reads the hub's latency breakdown — p50,
//! p99, p999 and the sum per pipeline stage (submit → doorbell → wqe →
//! fabric → rx → cqe → app) plus the end-to-end row — and asserts the
//! telescoping invariant: **the stage sums add up to the e2e sum in
//! integer nanoseconds at every swept point.** Per-hop fabric children
//! overlap the stages and are deliberately outside the sum.
//!
//! Artifacts: `results/latbreak.json` with one reconciliation row per
//! point, and one CSV per `(depth, stage, percentile)` series with the
//! message size on the x-axis.
//!
//! Requires `--features telemetry` (the span layer compiles to nothing
//! without it); prints a note and exits cleanly otherwise.
//! `XRDMA_SMOKE=1` shrinks the sweep for CI.

use std::cell::Cell;
use std::rc::Rc;

use xrdma_bench::scenarios::{self, Net};
use xrdma_bench::Report;
use xrdma_core::{XrdmaChannel, XrdmaConfig};
use xrdma_fabric::FabricConfig;
use xrdma_sim::Dur;
use xrdma_telemetry::{HubConfig, StageStat, TelemetryHub};

/// Breakdown rows measured at one `(size, depth)` sweep point.
struct Point {
    size: u64,
    depth: u32,
    breakdown: Vec<StageStat>,
}

/// Echo `size`-byte RPCs at queue depth `depth` for `span`, returning the
/// hub's per-stage breakdown for exactly that steady-state window.
fn run_point(size: u64, depth: u32, span: Dur, seed: u64) -> Point {
    let net: Net = scenarios::net(FabricConfig::pair(), seed);
    let client = scenarios::ctx(&net, 0, XrdmaConfig::default());
    let server = scenarios::ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = scenarios::connect_pair(&net, &client, &server, 9);
    s.set_on_request(move |ch, _msg, tok| {
        ch.respond_size(tok, size).ok();
    });

    // Install after setup: the histograms must not see handshake traffic.
    // Slow-op retention is irrelevant here; breakdown works regardless.
    let hub = TelemetryHub::install(
        &net.world,
        HubConfig {
            capture_spans: false,
            ..Default::default()
        },
    );

    let inflight = Rc::new(Cell::new(0u64));
    fn pump(ch: &Rc<XrdmaChannel>, size: u64, done: &Rc<Cell<u64>>) {
        let c2 = ch.clone();
        let d2 = done.clone();
        ch.send_request_size(size, move |_, _| {
            d2.set(d2.get() + 1);
            pump(&c2, size, &d2);
        })
        .ok();
    }
    for _ in 0..depth {
        pump(&c, size, &inflight);
    }
    net.world.run_for(span);

    Point {
        size,
        depth,
        breakdown: hub.latency_breakdown(),
    }
}

fn main() {
    if !cfg!(feature = "telemetry") {
        eprintln!(
            "[latbreak] built without the `telemetry` feature: the span layer \
             compiles to nothing and there is no breakdown to measure. \
             Re-run with `--features xrdma-bench/telemetry`."
        );
        return;
    }
    let smoke = xrdma_bench::smoke();
    let (sizes, depths, span): (&[u64], &[u32], Dur) = if smoke {
        (&[64, 16384], &[4], Dur::millis(5))
    } else {
        (&[64, 1024, 16384, 131072], &[1, 8], Dur::millis(25))
    };

    let mut rep = Report::new(
        "latbreak",
        "per-stage latency breakdown vs message size x queue depth; stage sums telescope to e2e",
    );
    // (depth, stage, pct-name) -> series of (size, value).
    let mut series: Vec<((u32, &'static str, &'static str), Vec<(f64, f64)>)> = Vec::new();
    let mut push = |key: (u32, &'static str, &'static str), x: f64, y: f64| match series
        .iter_mut()
        .find(|(k, _)| *k == key)
    {
        Some((_, rows)) => rows.push((x, y)),
        None => series.push((key, vec![(x, y)])),
    };

    println!("SIZE     DEPTH  OPS     E2E-P50(ns)  E2E-P99(ns)  STAGE-SUM(ns)  E2E-SUM(ns)");
    for &depth in depths {
        for &size in sizes {
            let pt = run_point(size, depth, span, 42);
            let bd = &pt.breakdown;
            let e2e = bd.last().expect("breakdown has the e2e row");
            assert_eq!(e2e.stage, "e2e");
            let stage_sum: u128 = bd[..bd.len() - 1].iter().map(|s| s.sum_ns).sum();
            println!(
                "{:<8} {:<6} {:<7} {:<12} {:<12} {:<14} {}",
                pt.size, pt.depth, e2e.count, e2e.p50_ns, e2e.p99_ns, stage_sum, e2e.sum_ns
            );
            rep.row(
                &format!("stage sums == e2e at {size}B depth {depth}"),
                "exact (integer ns telescoping)",
                format!("{stage_sum} vs {} ns over {} ops", e2e.sum_ns, e2e.count),
                e2e.count > 0 && stage_sum == e2e.sum_ns,
            );
            for st in bd {
                push((depth, st.stage, "p50"), size as f64, st.p50_ns as f64);
                push((depth, st.stage, "p99"), size as f64, st.p99_ns as f64);
                push((depth, st.stage, "p999"), size as f64, st.p999_ns as f64);
            }
        }
    }

    for ((depth, stage, pct), rows) in series {
        rep.series(&format!("d{depth}.{stage}.{pct}"), rows);
    }
    rep.finish();
    if !rep.all_hold() {
        std::process::exit(1);
    }
}
