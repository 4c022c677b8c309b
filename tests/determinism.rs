//! Whole-stack determinism: identical seeds produce bit-identical runs
//! through every layer (DES kernel → fabric → RNIC → middleware → apps),
//! and different seeds actually differ. This is the property every
//! regression experiment in the bench harness relies on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_apps::essd::EssdConfig;
use xrdma_apps::pangu::{Pangu, PanguConfig};
use xrdma_apps::{EssdFrontend, LoadSchedule};
use xrdma_core::{ChannelMux, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};

/// A digest of everything observable about a run.
#[derive(Debug, PartialEq)]
struct Digest {
    final_time: u64,
    events: u64,
    completed: u64,
    chunk_writes: u64,
    p99_ns: u64,
    fabric_pkts: u64,
    fabric_bytes: u64,
    ecn: u64,
    pauses: u64,
    qp_counts: Vec<usize>,
}

fn run(seed: u64) -> Digest {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::pod(2, 4, 2), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let pangu = Pangu::deploy(
        &fabric,
        &cm,
        PanguConfig {
            block_servers: 2,
            chunk_servers: 4,
            ..Default::default()
        },
        RnicConfig::default(),
        XrdmaConfig::default(),
        &rng,
    );
    world.run_for(Dur::millis(200));
    let essd = EssdFrontend::new(
        &pangu.blocks[0],
        EssdConfig {
            base_interval: Dur::micros(300),
            ..Default::default()
        },
        LoadSchedule::diurnal(Dur::millis(200), 0.3, 1.5),
        rng.fork("essd"),
    );
    essd.run_for(Dur::millis(400));
    world.run_for(Dur::millis(600));
    let c = fabric.stats().snapshot();
    let mut h = xrdma_sim::stats::Histogram::new();
    for b in &pangu.blocks {
        h.merge(&b.latency.borrow());
    }
    Digest {
        final_time: world.now().nanos(),
        events: world.events_executed(),
        completed: essd.completed.get(),
        chunk_writes: pangu.chunk_writes.get(),
        p99_ns: h.percentile(99.0),
        fabric_pkts: c.delivered_pkts,
        fabric_bytes: c.delivered_bytes,
        ecn: c.ecn_marked,
        pauses: c.pause_frames,
        qp_counts: pangu
            .blocks
            .iter()
            .map(|b| b.ctx.rnic().qp_count())
            .collect(),
    }
}

#[test]
fn same_seed_same_universe() {
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a, b);
    assert!(a.completed > 100, "the run did real work: {a:?}");
}

#[test]
fn different_seed_different_universe() {
    let a = run(1);
    let b = run(2);
    // Structure matches, trajectories differ.
    assert_eq!(a.qp_counts, b.qp_counts);
    assert_ne!(
        (a.events, a.fabric_pkts),
        (b.events, b.fabric_pkts),
        "seeds must actually matter"
    );
}

/// `Rc`-graph teardown: dropping the last user handle frees the world
/// (the fabric↔NIC link is weak in one direction by design). Guards the
/// sweep harness against unbounded memory growth across thousands of runs.
#[test]
fn worlds_are_reclaimed() {
    let world = World::new();
    let rng = SimRng::new(9);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let weak_world = Rc::downgrade(&world);
    drop(fabric);
    drop(world);
    // The world may be kept by queued events only; a fresh world with no
    // components must drop fully.
    assert!(weak_world.upgrade().is_none(), "world leaked");
}

/// The paper's stress shape (§V-C): a deep incast — 16 clients on one rack
/// all issuing requests at a single server, so the server's uplink queue
/// builds, ECN marks, CNPs fly and DCQCN throttles. Run twice with the
/// same seed the *serialized stats must be byte-identical*, which is a
/// much stricter check than comparing a few counters: every f64, every
/// histogram bucket, every cache gauge has to match. This is the harness
/// the `debug_invariants` checkers ride along with in CI (scripts/ci.sh
/// runs this test with the feature enabled).
fn incast_digest(seed: u64) -> String {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(17), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mk = |node: u32| {
        XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(node),
            RnicConfig::default(),
            XrdmaConfig::default(),
            &rng,
        )
    };
    let server = mk(0);
    server.listen(7, |ch| {
        ch.set_on_request(|ch, _msg, token| {
            let _ = ch.respond_size(token, 128);
        });
    });
    let mut clients = Vec::new();
    for i in 1..17u32 {
        let c = mk(i);
        let slot: Rc<RefCell<Option<_>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        c.connect(NodeId(0), 7, move |r| {
            *s2.borrow_mut() = Some(r.expect("connect"));
        });
        clients.push((c, slot));
    }
    world.run_for(Dur::millis(30));

    // Fire the incast: every client posts its whole burst in the same
    // instant. 48 KiB requests take the rendezvous path, so the server
    // issues RDMA reads into the congested downlink.
    let done = Rc::new(Cell::new(0u64));
    for (_, slot) in &clients {
        let ch = slot.borrow().clone().expect("channel");
        for _ in 0..32 {
            let d = done.clone();
            ch.send_request_size(48 * 1024, move |_, _| d.set(d.get() + 1))
                .expect("send accepted");
        }
    }
    world.run_for(Dur::millis(500));
    assert_eq!(done.get(), 16 * 32, "incast completes");

    let mut out = String::new();
    out.push_str(&serde_json::to_string(&fabric.stats().snapshot()).expect("json"));
    for ctx in std::iter::once(&server).chain(clients.iter().map(|(c, _)| c)) {
        out.push('\n');
        out.push_str(&serde_json::to_string(&ctx.stats()).expect("json"));
        out.push('\n');
        out.push_str(&serde_json::to_string(&ctx.rnic().stats()).expect("json"));
    }
    out.push_str(&format!(
        "\ntime={} events={}",
        world.now().nanos(),
        world.events_executed()
    ));
    out
}

#[test]
fn incast_same_seed_byte_identical() {
    let a = incast_digest(77);
    let b = incast_digest(77);
    assert_eq!(a, b, "same-seed incast digests must match byte for byte");
    // The scenario really did congest the fabric (otherwise this test
    // could silently degrade into a no-op sanity check).
    let ecn: u64 = a
        .split("\"ecn_marked\":")
        .nth(1)
        .and_then(|t| t.split(&[',', '}'][..]).next())
        .and_then(|n| n.trim().parse().ok())
        .expect("snapshot shape");
    assert!(
        ecn > 0,
        "incast must actually congest the fabric (ecn_marked = {ecn})"
    );
}

#[test]
fn incast_different_seed_diverges() {
    let a = incast_digest(7);
    let b = incast_digest(8);
    assert_ne!(a, b, "seed must influence the incast trajectory");
}

/// The incast again, multiplexed: every one of 8 clients runs 8 logical
/// channels through a 2-slot `ChannelMux` (constant eviction churn, SRQ
/// receive sharing on), and the digest carries the mux counters too.
fn mux_incast_digest(seed: u64) -> String {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(9), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mut cfg = XrdmaConfig::default();
    cfg.mux_pool = 2;
    cfg.mux_lanes = 4;
    cfg.use_srq = true;
    let mk = |node: u32| {
        XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(node),
            RnicConfig::default(),
            cfg.clone(),
            &rng,
        )
    };
    let server = mk(0);
    let smux = ChannelMux::new(&server, 7);
    smux.serve(|_, _, reply| {
        if let Some(r) = reply {
            let _ = r.reply_size(128);
        }
    });
    let done = Rc::new(Cell::new(0u64));
    let mut client_muxes = Vec::new();
    for i in 1..9u32 {
        let c = mk(i);
        let m = ChannelMux::new(&c, 7);
        let logicals: Vec<_> = (0..8).map(|_| m.open(NodeId(0))).collect();
        client_muxes.push((c, m, logicals));
    }
    world.run_for(Dur::millis(30));
    for (_, _, logicals) in &client_muxes {
        for lc in logicals {
            for _ in 0..4 {
                let d = done.clone();
                lc.send_request_size(4096, move |_| d.set(d.get() + 1))
                    .expect("send accepted");
            }
        }
    }
    world.run_for(Dur::millis(500));
    assert_eq!(done.get(), 8 * 8 * 4, "muxed incast completes");

    let mut out = String::new();
    out.push_str(&serde_json::to_string(&fabric.stats().snapshot()).expect("json"));
    out.push('\n');
    out.push_str(&serde_json::to_string(&smux.stats()).expect("json"));
    for (ctx, m, _) in &client_muxes {
        out.push('\n');
        out.push_str(&serde_json::to_string(&ctx.stats()).expect("json"));
        out.push('\n');
        out.push_str(&serde_json::to_string(&m.stats()).expect("json"));
        out.push('\n');
        out.push_str(&serde_json::to_string(&ctx.rnic().stats()).expect("json"));
    }
    out.push_str(&format!(
        "\ntime={} events={}",
        world.now().nanos(),
        world.events_executed()
    ));
    out
}

#[test]
fn mux_incast_same_seed_byte_identical() {
    let a = mux_incast_digest(2718);
    let b = mux_incast_digest(2718);
    assert_eq!(a, b, "same-seed muxed digests must match byte for byte");
    let evictions: u64 = a
        .split("\"evictions\":")
        .skip(1)
        .map(|t| {
            t.split(&[',', '}'][..])
                .next()
                .and_then(|n| n.trim().parse::<u64>().ok())
                .expect("mux stats shape")
        })
        .sum();
    assert!(evictions > 0, "the 2-slot pools must churn (evictions = 0)");
}

#[test]
fn mux_incast_different_seed_diverges() {
    let a = mux_incast_digest(2718);
    let b = mux_incast_digest(2719);
    assert_ne!(a, b, "seed must influence the muxed trajectory");
}

/// The determinism contract extends to the telemetry artifacts: a hub
/// capturing the same 16-client incast twice with the same seed must
/// export byte-identical JSONL. This is what makes `results/` diffs
/// meaningful across regression runs.
#[cfg(feature = "telemetry")]
fn incast_jsonl(seed: u64) -> String {
    let world = World::new();
    let guard =
        xrdma_telemetry::TelemetryHub::install(&world, xrdma_telemetry::HubConfig::default());
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(17), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mk = |node: u32| {
        XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(node),
            RnicConfig::default(),
            XrdmaConfig::default(),
            &rng,
        )
    };
    let server = mk(0);
    server.listen(7, |ch| {
        ch.set_on_request(|ch, _msg, token| {
            let _ = ch.respond_size(token, 128);
        });
    });
    let mut clients = Vec::new();
    for i in 1..17u32 {
        let c = mk(i);
        let slot: Rc<RefCell<Option<_>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        c.connect(NodeId(0), 7, move |r| {
            *s2.borrow_mut() = Some(r.expect("connect"));
        });
        clients.push((c, slot));
    }
    world.run_for(Dur::millis(30));
    let done = Rc::new(Cell::new(0u64));
    for (_, slot) in &clients {
        let ch = slot.borrow().clone().expect("channel");
        for _ in 0..32 {
            let d = done.clone();
            ch.send_request_size(48 * 1024, move |_, _| d.set(d.get() + 1))
                .expect("send accepted");
        }
    }
    world.run_for(Dur::millis(500));
    assert_eq!(done.get(), 16 * 32, "incast completes");
    xrdma_telemetry::export::to_jsonl(&guard.events())
}

#[cfg(feature = "telemetry")]
#[test]
fn incast_telemetry_jsonl_byte_identical() {
    let a = incast_jsonl(77);
    let b = incast_jsonl(77);
    assert_eq!(a, b, "same-seed telemetry JSONL must match byte for byte");
    // The log is nontrivial: the congested incast produces CM setup, ECN
    // marks, CNPs and DCQCN rate updates, not just a handful of lines.
    assert!(
        a.lines().count() > 100,
        "expected a substantive event log, got {} lines",
        a.lines().count()
    );
    assert!(a.contains("\"ev\":\"cnp\""), "CNPs fly in the incast");
    assert!(
        a.contains("\"ev\":\"dcqcn-rate\""),
        "DCQCN reacts to the CNPs"
    );
}
