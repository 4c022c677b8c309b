//! §V-A chaos recovery: how fast does keepalive turn a silent peer crash
//! into a typed `PeerDead` teardown, as a function of the probe interval?
//!
//! Paper claims:
//! * native RDMA holds a dead peer's resources "until future
//!   communication" — for an idle channel that is forever;
//! * X-RDMA's zero-byte-write probes bound detection to a few keepalive
//!   intervals (probe timeout + the go-back-N retry budget), so the
//!   operator dials detection latency with one knob.
//!
//! The scenario: an idle established channel, the server process crashed
//! by a scripted `FaultPlan` at t = 500 ms (no FIN, no close — the hard
//! failure mode), detection latency measured from the crash instant to
//! the client's `on_close(PeerDead)`. Swept over the keepalive interval.

use std::cell::Cell;
use std::rc::Rc;

use crate::scenarios::{ctx_with, net};
use crate::Report;
use xrdma_core::channel::CloseReason;
use xrdma_core::XrdmaConfig;
use xrdma_fabric::{FabricConfig, NodeId};
use xrdma_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTarget};
use xrdma_rnic::RnicConfig;
use xrdma_sim::Dur;

const CRASH_MS: u64 = 500;

/// Crash→PeerDead latency (ms) for one keepalive interval, or infinity
/// if the death went undetected inside the 10 s budget.
fn detect_latency_ms(keepalive_ms: u64, seed: u64) -> f64 {
    let n = net(FabricConfig::pair(), seed);
    let plan = FaultPlan::new().with(FaultSpec {
        at_ns: CRASH_MS * 1_000_000,
        dur_ns: None, // the peer never comes back
        target: FaultTarget::Node(0),
        kind: FaultKind::PeerCrash,
    });
    let _guard = FaultInjector::install(&n.world, plan, n.rng.fork("faults"));
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(keepalive_ms);
    cfg.timer_period = Dur::millis((keepalive_ms / 5).max(1));
    let mut rnic_cfg = RnicConfig::default();
    rnic_cfg.retx_timeout = Dur::millis(2);
    rnic_cfg.retry_count = 2;
    let server = ctx_with(&n, 0, rnic_cfg.clone(), cfg.clone());
    server.listen(7, |_| {});
    let client = ctx_with(&n, 1, rnic_cfg, cfg);
    let established: Rc<Cell<bool>> = Rc::new(Cell::new(false));
    let closed_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let (e2, c2, w2) = (established.clone(), closed_at.clone(), n.world.clone());
    client.connect(NodeId(0), 7, move |r| {
        let ch = r.expect("connect");
        e2.set(true);
        let (c3, w3) = (c2.clone(), w2.clone());
        ch.set_on_close(move |reason| {
            assert_eq!(reason, CloseReason::PeerDead, "typed teardown");
            c3.set(Some(w3.now().nanos()));
        });
    });
    n.world.run_for(Dur::secs(10));
    assert!(established.get(), "channel established before the crash");
    match closed_at.get() {
        Some(ns) => (ns - CRASH_MS * 1_000_000) as f64 / 1e6,
        None => f64::INFINITY,
    }
}

pub fn run() -> Report {
    let intervals_ms = [10u64, 25, 50, 100, 200, 500];
    let mut series = Vec::new();
    for &iv in &intervals_ms {
        let ms = detect_latency_ms(iv, 42);
        println!("keepalive {iv:>3} ms -> detected in {ms:.1} ms");
        series.push((iv as f64, ms));
    }

    let mut rep = Report::new(
        "chaos_recovery",
        "idle-channel peer crash: PeerDead detection latency vs keepalive interval",
    );
    let all_detected = series.iter().all(|&(_, ms)| ms.is_finite());
    rep.row(
        "idle dead peer detected at all",
        "native RDMA: never (held until future communication)",
        if all_detected { "always" } else { "MISSED" },
        all_detected,
    );
    // Detection should track the knob: a few intervals each (probe
    // timeout + retries), so latency grows roughly linearly with the
    // interval rather than being flat or unbounded.
    let bounded = series.iter().all(|&(iv, ms)| ms <= iv * 4.0 + 50.0);
    rep.row(
        "detection within a few intervals",
        "probe timeout + retry budget",
        format!(
            "max {:.1} ms at {} ms interval",
            series.last().map(|&(_, ms)| ms).unwrap_or(f64::NAN),
            intervals_ms.last().unwrap()
        ),
        bounded,
    );
    let (lo, hi) = (series[0].1, series[series.len() - 1].1);
    rep.row(
        "latency scales with the knob",
        "operator dials detection via keepalive_intv",
        format!("{lo:.1} ms @ 10 ms vs {hi:.1} ms @ 500 ms"),
        hi > lo,
    );
    rep.series("detect_ms_vs_keepalive_ms", series);
    rep
}
