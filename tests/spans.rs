//! Causal-span integration tests (DESIGN.md §8): the span layer must be
//! deterministic (same seed → byte-identical JSONL), forensically useful
//! (a CQE stall retains the slow op's tree and blames the right stage),
//! structurally sound under adversity (parent/child integrity and
//! telescoping stages survive packet loss and go-back-N retransmission),
//! and exact: the seven stage sums equal the end-to-end sum in integer
//! nanoseconds across message size and queue depth.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};
use xrdma_telemetry::{HubConfig, HubGuard, SpanNode, TelemetryHub};
use xrdma_tests::pump;

/// One server, `n` clients, each pipelining `burst` RPCs of `req_bytes`;
/// returns the hub guard (and keeps the whole stack alive with it) once
/// every RPC has completed.
fn rig(seed: u64, hub_cfg: HubConfig, n: u32, burst: u32, req_bytes: u64) -> (HubGuard, Rc<World>) {
    let world = World::new();
    let hub = TelemetryHub::install(&world, hub_cfg);
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(n + 1), &rng);
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
    let mut slots = Vec::new();
    for i in 1..=n {
        let c = mk(i);
        let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        c.connect(NodeId(0), 7, move |r| {
            *s2.borrow_mut() = Some(r.expect("connect"));
        });
        clients.push(c);
        slots.push(slot);
    }
    world.run_for(Dur::millis(30));
    let done = Rc::new(Cell::new(0u64));
    for slot in &slots {
        let ch = slot.borrow().clone().expect("channel");
        for _ in 0..burst {
            let d = done.clone();
            ch.send_request_size(req_bytes, move |_, _| d.set(d.get() + 1))
                .expect("send accepted");
        }
    }
    world.run_for(Dur::millis(800));
    assert_eq!(done.get(), u64::from(n * burst), "workload completes");
    drop((server, clients));
    (hub, world)
}

// ---------------------------------------------------------------------------
// 1. Determinism: same seed → byte-identical span JSONL
// ---------------------------------------------------------------------------

fn span_jsonl(seed: u64) -> String {
    let (hub, _world) = rig(seed, HubConfig::default(), 4, 8, 4096);
    xrdma_telemetry::export::spans_to_jsonl(&hub.span_nodes())
}

#[test]
fn same_seed_span_jsonl_byte_identical() {
    let a = span_jsonl(77);
    let b = span_jsonl(77);
    assert_eq!(a, b, "same-seed span JSONL must match byte for byte");
    // Nontrivial: 4 clients × 8 requests + responses, each op a root plus
    // seven telescoping stage children and per-hop fabric children.
    assert!(
        a.lines().count() > 200,
        "expected a substantive span log, got {} lines",
        a.lines().count()
    );
    for stage in ["submit", "doorbell", "wqe", "fabric", "rx", "cqe", "app"] {
        assert!(
            a.contains(&format!("\"name\":\"{stage}\"")),
            "stage `{stage}` missing from the span log"
        );
    }
    assert!(a.contains("\"name\":\"hop\""), "per-hop children recorded");
}

/// Guard against the JSONL being trivially constant: a congested incast
/// (where ECN marking and DCQCN pacing depend on the seed) must produce
/// different span timings for different seeds.
#[test]
fn different_seed_span_jsonl_diverges() {
    let a = {
        let (hub, _w) = rig(7, HubConfig::default(), 8, 16, 48 * 1024);
        xrdma_telemetry::export::spans_to_jsonl(&hub.span_nodes())
    };
    let b = {
        let (hub, _w) = rig(8, HubConfig::default(), 8, 16, 48 * 1024);
        xrdma_telemetry::export::spans_to_jsonl(&hub.span_nodes())
    };
    assert_ne!(a, b, "seed must influence span timings");
}

// ---------------------------------------------------------------------------
// 2. Structural integrity under retransmission: drop 30 % of the packets
//    arriving at the server; every recovered op's tree must still be sound.
// ---------------------------------------------------------------------------

#[test]
fn span_trees_stay_sound_under_retransmission() {
    let world = World::new();
    let hub = TelemetryHub::install(&world, HubConfig::default());
    let rng = SimRng::new(11);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
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
    let client = mk(1);
    let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let s2 = slot.clone();
    client.connect(NodeId(0), 7, move |r| {
        *s2.borrow_mut() = Some(r.expect("connect"));
    });
    world.run_for(Dur::millis(30));

    // Lossy inbound path at the server: go-back-N has to earn each message.
    let filter = xrdma_analysis::Filter::install(server.rnic(), rng.fork("filter"));
    filter.drop_rate(Some(NodeId(1)), 0.3);

    let ch = slot.borrow().clone().expect("channel");
    let done = Rc::new(Cell::new(0u64));
    for _ in 0..40 {
        let d = done.clone();
        ch.send_request_size(1024, move |_, _| d.set(d.get() + 1))
            .expect("send accepted");
    }
    world.run_for(Dur::secs(5));
    assert_eq!(done.get(), 40, "RC recovers every RPC");
    assert!(
        client.rnic().stats().retransmissions > 0,
        "the drops actually forced retransmissions"
    );

    let nodes = hub.span_nodes();
    assert!(!nodes.is_empty());
    check_tree_integrity(&nodes);
}

/// Every non-root node points at an existing root; stage children tile
/// `[root.start, root.end]` exactly (hops may overlap, but must stay
/// within their root's window).
fn check_tree_integrity(nodes: &[SpanNode]) {
    use std::collections::BTreeMap;
    let roots: BTreeMap<u64, &SpanNode> = nodes
        .iter()
        .filter(|n| n.parent.is_none())
        .map(|n| (n.id, n))
        .collect();
    assert!(!roots.is_empty(), "span log has roots");
    let mut stages: BTreeMap<u64, Vec<&SpanNode>> = BTreeMap::new();
    for n in nodes {
        let Some(p) = n.parent else {
            assert_eq!(n.name, "op", "roots are ops");
            continue;
        };
        let root = roots
            .get(&p)
            .unwrap_or_else(|| panic!("child {} points at missing root {p}", n.id));
        assert!(
            n.start_ns >= root.start_ns && n.end_ns <= root.end_ns,
            "child `{}` [{}, {}] escapes its root's window [{}, {}]",
            n.name,
            n.start_ns,
            n.end_ns,
            root.start_ns,
            root.end_ns
        );
        assert_eq!((n.node, n.qpn, n.seq), (root.node, root.qpn, root.seq));
        if n.name != "hop" {
            stages.entry(p).or_default().push(n);
        }
    }
    for (root_id, sts) in &stages {
        let root = roots[root_id];
        // Stage children arrive in close order, which for a telescoping
        // chain is also time order: each starts where its predecessor
        // ended, the first at the root's open, the last at its end.
        let mut cursor = root.start_ns;
        for st in sts {
            assert_eq!(
                st.start_ns, cursor,
                "stage `{}` of op {root_id} leaves a gap",
                st.name
            );
            assert!(st.end_ns >= st.start_ns);
            cursor = st.end_ns;
        }
        assert_eq!(
            cursor, root.end_ns,
            "stages of op {root_id} must telescope to its end"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Slow-op forensics: a fault-injected CQE stall must retain the op's
//    full tree and attribute the delay to the `cqe` stage.
// ---------------------------------------------------------------------------

#[test]
fn cqe_delay_fault_retains_slow_tree_blaming_cqe_stage() {
    use xrdma_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTarget};
    const DELAY_NS: u64 = 500_000;

    let world = World::new();
    // Ops normally finish well under 100 µs here; only the stalled ones
    // cross the retention threshold.
    let hub = TelemetryHub::install(
        &world,
        HubConfig {
            slow_span_ns: 300_000,
            ..Default::default()
        },
    );
    let rng = SimRng::new(5);
    // The receive-side CQE of a request is raised at the server (node 0):
    // stall it there, inside the traffic window.
    let plan = FaultPlan::new().with(FaultSpec {
        at_ns: 30_000_000,
        dur_ns: Some(200_000_000),
        target: FaultTarget::Node(0),
        kind: FaultKind::CqeDelay { delay_ns: DELAY_NS },
    });
    let _fg = FaultInjector::install(&world, plan, rng.fork("faults"));

    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
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
    let client = mk(1);
    let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let s2 = slot.clone();
    client.connect(NodeId(0), 7, move |r| {
        *s2.borrow_mut() = Some(r.expect("connect"));
    });
    world.run_for(Dur::millis(30));
    let ch = slot.borrow().clone().expect("channel");
    let done = Rc::new(Cell::new(0u64));
    for _ in 0..20 {
        let d = done.clone();
        ch.send_request_size(1024, move |_, _| d.set(d.get() + 1))
            .expect("send accepted");
    }
    world.run_for(Dur::millis(400));
    assert_eq!(done.get(), 20, "a stalled NIC delays, never loses");

    let trees = hub.slow_span_trees();
    assert!(!trees.is_empty(), "the stall must retain slow-op trees");
    // Every retained tree is a stalled request into the server: its `cqe`
    // stage carries the injected delay, and no other stage comes close.
    let mut blamed = 0;
    for tree in &trees {
        let root = &tree[0];
        assert_eq!(root.name, "op");
        if root.node != 1 {
            continue; // a response span that straddled the window
        }
        let dur = |name: &str| {
            tree[1..]
                .iter()
                .filter(|n| n.name == name)
                .map(|n| n.end_ns - n.start_ns)
                .max()
                .unwrap_or(0)
        };
        let cqe = dur("cqe");
        assert!(
            cqe >= DELAY_NS,
            "cqe stage must absorb the injected stall (got {cqe} ns)"
        );
        for other in ["submit", "doorbell", "wqe", "fabric", "rx", "app"] {
            assert!(
                dur(other) < DELAY_NS,
                "stage `{other}` ({} ns) must not out-blame cqe",
                dur(other)
            );
        }
        blamed += 1;
    }
    assert!(blamed > 0, "at least one stalled request tree retained");
}

// ---------------------------------------------------------------------------
// 4. Telescoping: across message size × queue depth, the seven stage sums
//    of the latency breakdown add up to the e2e sum to the nanosecond.
// ---------------------------------------------------------------------------

/// One client echoes `size`-byte RPCs against one server with `depth` in
/// flight for 25 ms; the hub is installed after setup, so the breakdown
/// covers steady-state traffic only.
fn breakdown_at(size: u64, depth: u32) -> Vec<xrdma_telemetry::StageStat> {
    let world = World::new();
    let rng = SimRng::new(42);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
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
    let server = mk(1);
    server.listen(9, move |ch| {
        ch.set_on_request(move |ch, _msg, token| {
            ch.respond_size(token, size).expect("respond");
        });
    });
    let client = mk(0);
    let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::default();
    let s2 = slot.clone();
    client.connect(NodeId(1), 9, move |r| {
        *s2.borrow_mut() = Some(r.expect("connect"));
    });
    world.run_for(Dur::millis(20));
    let ch = slot.borrow().clone().expect("channel");
    let hub = TelemetryHub::install(
        &world,
        HubConfig {
            capture_spans: false,
            ..Default::default()
        },
    );
    let done = Rc::new(Cell::new(0u64));
    for _ in 0..depth {
        pump(&ch, size, &done);
    }
    world.run_for(Dur::millis(25));
    hub.latency_breakdown()
}

#[test]
fn stage_sums_equal_e2e_across_size_and_depth() {
    for depth in [1, 8] {
        for size in [64, 1024, 16 * 1024, 128 * 1024] {
            let bd = breakdown_at(size, depth);
            let (e2e, stages) = bd.split_last().expect("breakdown rows");
            assert_eq!(e2e.stage, "e2e");
            assert_eq!(stages.len(), 7, "seven stages");
            let sum: u128 = stages.iter().map(|s| s.sum_ns).sum();
            assert!(e2e.count > 0, "{size} B depth {depth}: ops traced");
            assert_eq!(
                sum, e2e.sum_ns,
                "{size} B depth {depth}: stage sums vs e2e over {} ops",
                e2e.count
            );
        }
    }
}
