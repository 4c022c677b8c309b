//! Analysis-framework demo (§VI): trace RPCs with the req-rsp header,
//! synchronize clocks, decompose latency, inject faults with the Filter,
//! and catch a slow application with the poll-gap watchdog — the §VII-D
//! case-study workflow end to end.
//!
//! Run with: `cargo run --example tracing_demo`; pass `-- --format json`
//! for the xr-stat machine-readable latency-breakdown document.

use std::cell::RefCell;
use std::rc::Rc;

use xrdma_analysis::clocksync::ClockSync;
use xrdma_analysis::xrstat;
use xrdma_analysis::{Filter, Tracer};
use xrdma_core::{MsgMode, XrdmaChannel, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};
use xrdma_telemetry::{HubConfig, TelemetryHub};

fn main() {
    let world = World::new();
    // Causal-span capture (DESIGN.md §8): the hub feeds the per-stage
    // latency breakdown printed at the end.
    let hub = TelemetryHub::install(&world, HubConfig::default());
    let rng = SimRng::new(11);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));

    // Tracing requires req-rsp mode (≈2–4 % overhead, §VII-A).
    let mut cfg = XrdmaConfig::default();
    cfg.msg_mode = MsgMode::ReqRsp;
    cfg.trace_sample_mask = 0; // trace everything
    cfg.polling_warn_cycle = Dur::micros(500);
    cfg.slow_threshold = Dur::micros(200);

    let client = XrdmaContext::on_new_node(
        &fabric,
        &cm,
        NodeId(0),
        RnicConfig::default(),
        cfg.clone(),
        &rng,
    );
    let server =
        XrdmaContext::on_new_node(&fabric, &cm, NodeId(1), RnicConfig::default(), cfg, &rng);
    // The server machine's clock is 8 µs ahead — realistic skew that would
    // wreck naive latency decomposition.
    server.clock_skew_ns.set(8_000);

    let sch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let s2 = sch.clone();
    server.listen(7, move |ch| *s2.borrow_mut() = Some(ch));
    let cch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let c2 = cch.clone();
    client.connect(NodeId(1), 7, move |r| *c2.borrow_mut() = Some(r.unwrap()));
    world.run_for(Dur::millis(20));
    let c = cch.borrow().clone().unwrap();
    let s = sch.borrow().clone().unwrap();

    // Step 1: clock sync (§VI-A prerequisite).
    ClockSync::serve(&s);
    let cs = ClockSync::new();
    cs.probe(&c, 16);
    world.run_for(Dur::millis(20));
    let offset = cs.offset_ns().expect("clock estimate");
    println!("clock-sync: estimated server offset {offset} ns (true: 8000 ns)");

    // Step 2: attach the tracer and run traced traffic against a slightly
    // slow server handler.
    let tracer = Tracer::new(offset);
    client.set_instrument(tracer.clone());
    let srv = server.clone();
    s.set_on_request(move |ch, _msg, tok| {
        srv.thread().charge(Dur::micros(30)); // some real work
        ch.respond_size(tok, 128).ok();
    });
    for _ in 0..100 {
        c.send_request_size(1024, |_, _| {}).unwrap();
    }
    world.run_for(Dur::millis(50));
    println!(
        "traced {} RPCs: mean one-way {:.2} µs, mean RTT {:.2} µs → {}",
        tracer.record_count(),
        tracer.mean_oneway_ns() / 1e3,
        tracer.mean_rtt_ns() / 1e3,
        if tracer.network_dominated() {
            "network-dominated"
        } else {
            "host-dominated"
        }
    );

    // Step 3: reproduce the §VII-D application-jitter case: a handler that
    // stalls 2 ms (the allocator lock); the watchdog flags it.
    let srv2 = server.clone();
    s.set_on_request(move |ch, _msg, tok| {
        srv2.thread().charge(Dur::millis(2));
        ch.respond_size(tok, 128).ok();
    });
    let server_tracer = Tracer::new(offset);
    server.set_instrument(server_tracer.clone());
    for _ in 0..10 {
        c.send_request_size(1024, |_, _| {}).unwrap();
    }
    world.run_for(Dur::millis(100));
    println!(
        "watchdog: {} slow ops, {} poll-gap warnings on the server",
        server_tracer.slow_ops.borrow().len(),
        server.stats().poll_gap_warnings
    );
    assert!(!server_tracer.slow_ops.borrow().is_empty());

    // Step 4: fault injection — drop 30 % of packets arriving at the
    // server; RC recovers every message.
    let filter = Filter::install(server.rnic(), rng.fork("filter"));
    filter.drop_rate(Some(NodeId(0)), 0.3);
    let done = Rc::new(std::cell::Cell::new(0u32));
    for _ in 0..50 {
        let d = done.clone();
        c.send_request_size(256, move |_, _| d.set(d.get() + 1))
            .unwrap();
    }
    world.run_for(Dur::secs(3));
    println!(
        "filter: dropped {} packets, yet {}/50 RPCs completed ({} retransmissions)",
        filter.dropped(),
        done.get(),
        client.rnic().stats().retransmissions
    );
    assert_eq!(done.get(), 50);

    // Step 5: xr-stat per-stage latency breakdown from the causal spans —
    // where did each message's time go, submit through app? `--format json`
    // emits the deterministic machine-readable document instead.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--format=json")
        || args
            .windows(2)
            .any(|w| w[0] == "--format" && w[1] == "json");
    if json {
        print!("{}", xrstat::latency_breakdown_json(&hub));
    } else {
        print!(
            "{}",
            xrstat::render_latency_breakdown(&hub.latency_breakdown())
        );
        let (kept, seen, dropped) = hub.recorder_occupancy();
        print!("{}", xrstat::render_recorder_status(kept, seen, dropped));
    }
    println!("tracing_demo OK");
}
