//! Chaos regression suite: scripted fault plans (`xrdma-faults`) driven
//! against the full stack, asserting the §V robustness invariants —
//! keepalive declares `PeerDead` within its probe budget, seq-ack
//! retransmits recover exactly-once delivery, connect-time failures
//! surface as typed errors, and every scenario is byte-identical when
//! re-run with the same seed and plan.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_core::channel::CloseReason;
use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext, XrdmaError};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTarget, FaultsGuard};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};

// ---------------------------------------------------------------------------
// Plan-building helpers
// ---------------------------------------------------------------------------

fn edge(s: &str) -> FaultTarget {
    FaultTarget::Edge(s.to_string())
}

fn spec(at_ms: u64, dur_ms: Option<u64>, target: FaultTarget, kind: FaultKind) -> FaultSpec {
    FaultSpec {
        at_ns: at_ms * 1_000_000,
        dur_ns: dur_ms.map(|d| d * 1_000_000),
        target,
        kind,
    }
}

// ---------------------------------------------------------------------------
// The chaos rig: a rack with one server and N clients, fault plan armed
// before the stack is built so RNIC node hooks register with the injector.
// ---------------------------------------------------------------------------

struct Opts {
    n_clients: u32,
    cfg: XrdmaConfig,
    /// Server-side override (e.g. a squeezed memory cache).
    server_cfg: Option<XrdmaConfig>,
    rnic_cfg: RnicConfig,
    /// When false the server sinks requests without responding, so RPCs
    /// stay outstanding (the "mid-RPC" scenarios).
    server_responds: bool,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            n_clients: 1,
            cfg: XrdmaConfig::default(),
            server_cfg: None,
            rnic_cfg: RnicConfig::default(),
            server_responds: true,
        }
    }
}

/// The fast-detection config the keepalive tests use: 10 ms probes, 2 ms
/// timers, 2 ms go-back-N timeout with 2 retries.
fn fast_cfg() -> (XrdmaConfig, RnicConfig) {
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(10);
    cfg.timer_period = Dur::millis(2);
    let mut rnic_cfg = RnicConfig::default();
    rnic_cfg.retx_timeout = Dur::millis(2);
    rnic_cfg.retry_count = 2;
    (cfg, rnic_cfg)
}

struct Chaos {
    world: Rc<World>,
    guard: FaultsGuard,
    fabric: Rc<Fabric>,
    server: Rc<XrdmaContext>,
    /// Accept-side channels, in accept order.
    server_chans: Rc<RefCell<Vec<Rc<XrdmaChannel>>>>,
    clients: Vec<(Rc<XrdmaContext>, Rc<XrdmaChannel>)>,
}

/// Build the rig and run 20 ms of setup; every client holds an
/// established channel to node 0's service 7 when this returns.
fn stack(seed: u64, plan: FaultPlan, opts: Opts) -> Chaos {
    let world = World::new();
    let rng = SimRng::new(seed);
    // Install first: `Rnic::new` registers node hooks with the current
    // injector.
    let guard = FaultInjector::install(&world, plan, rng.fork("faults"));
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(opts.n_clients + 1), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let server_cfg = opts.server_cfg.unwrap_or_else(|| opts.cfg.clone());
    let server = XrdmaContext::on_new_node(
        &fabric,
        &cm,
        NodeId(0),
        opts.rnic_cfg.clone(),
        server_cfg,
        &rng,
    );
    let server_chans: Rc<RefCell<Vec<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(Vec::new()));
    let sc = server_chans.clone();
    let responds = opts.server_responds;
    server.listen(7, move |ch| {
        sc.borrow_mut().push(ch.clone());
        ch.set_on_request(move |ch, _msg, token| {
            if responds {
                let _ = ch.respond_size(token, 128);
            }
        });
    });
    let mut pending = Vec::new();
    for i in 1..=opts.n_clients {
        let c = XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(i),
            opts.rnic_cfg.clone(),
            opts.cfg.clone(),
            &rng,
        );
        let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        c.connect(NodeId(0), 7, move |r| {
            *s2.borrow_mut() = Some(r.expect("connect"));
        });
        pending.push((c, slot));
    }
    world.run_for(Dur::millis(20));
    let clients = pending
        .into_iter()
        .map(|(c, slot)| {
            let ch = slot.borrow().clone().expect("channel established");
            (c, ch)
        })
        .collect();
    Chaos {
        world,
        guard,
        fabric,
        server,
        server_chans,
        clients,
    }
}

/// Serialize everything observable about the run — same discipline as the
/// determinism suite: every counter, gauge and histogram bucket must match
/// byte for byte across same-seed same-plan reruns.
fn digest(c: &Chaos) -> String {
    let mut out = String::new();
    out.push_str(&serde_json::to_string(&c.fabric.stats().snapshot()).expect("json"));
    for ctx in std::iter::once(&c.server).chain(c.clients.iter().map(|(ctx, _)| ctx)) {
        out.push('\n');
        out.push_str(&serde_json::to_string(&ctx.stats()).expect("json"));
        out.push('\n');
        out.push_str(&serde_json::to_string(&ctx.rnic().stats()).expect("json"));
    }
    out.push_str(&format!(
        "\ntime={} events={} injected={}",
        c.world.now().nanos(),
        c.world.events_executed(),
        c.guard.injected()
    ));
    out
}

/// Fire `per_client` RPCs of `size` bytes on every client channel,
/// counting completions (error replies do not count).
fn blast(c: &Chaos, per_client: u32, size: u64) -> Rc<Cell<u64>> {
    let done = Rc::new(Cell::new(0u64));
    for (_, ch) in &c.clients {
        for _ in 0..per_client {
            let d = done.clone();
            ch.send_request_size(size, move |_, msg| {
                if !msg.is_error() {
                    d.set(d.get() + 1);
                }
            })
            .expect("send accepted");
        }
    }
    done
}

fn total_retransmissions(c: &Chaos) -> u64 {
    std::iter::once(&c.server)
        .chain(c.clients.iter().map(|(ctx, _)| ctx))
        .map(|ctx| ctx.rnic().stats().retransmissions)
        .sum()
}

/// Every scenario runs twice; the digests must match byte for byte
/// (same seed + same plan ⇒ same universe, faults included).
fn assert_replayable(scenario: fn(u64) -> String, seed: u64) {
    let a = scenario(seed);
    let b = scenario(seed);
    assert_eq!(a, b, "same-seed same-plan rerun must be byte-identical");
}

// ---------------------------------------------------------------------------
// 1. Link flap during an incast (§V robustness × §V-C congestion)
// ---------------------------------------------------------------------------

fn link_flap_incast(seed: u64) -> String {
    // The server's downlink flaps twice while 8 clients blast rendezvous
    // requests at it.
    let plan = FaultPlan::new()
        .with(spec(19, Some(4), edge("tor0->host0"), FaultKind::LinkDown))
        .with(spec(90, Some(3), edge("tor0->host0"), FaultKind::LinkDown));
    let c = stack(
        seed,
        plan,
        Opts {
            n_clients: 8,
            ..Opts::default()
        },
    );
    let done = blast(&c, 16, 48 * 1024);
    c.world.run_for(Dur::millis(500));
    assert_eq!(
        done.get(),
        8 * 16,
        "every request completes despite the flap"
    );
    assert!(
        total_retransmissions(&c) > 0,
        "the flap must force go-back-N retransmissions"
    );
    assert!(c.guard.injected() > 0, "faults actually fired");
    for (_, ch) in &c.clients {
        assert!(
            !ch.is_closed(),
            "flap shorter than retry budget: no teardown"
        );
    }
    digest(&c)
}

#[test]
fn chaos_link_flap_during_incast() {
    assert_replayable(link_flap_incast, 11);
}

// ---------------------------------------------------------------------------
// 2. Drop storm across the seq-ack window: exactly-once delivery (§IV-D)
// ---------------------------------------------------------------------------

fn drop_storm(seed: u64) -> String {
    // 25% of the client's egress packets vanish for 30 ms while a full
    // window of eager requests is in flight.
    let plan = FaultPlan::new().with(spec(
        20,
        Some(30),
        edge("host1->tor0"),
        FaultKind::Drop { prob: 0.25 },
    ));
    let c = stack(seed, plan, Opts::default());
    let done = blast(&c, 64, 1024);
    c.world.run_for(Dur::millis(600));
    assert_eq!(done.get(), 64, "all RPCs complete through the storm");
    let sch = c.server_chans.borrow()[0].clone();
    assert_eq!(
        sch.stats().msgs_received,
        64,
        "exactly-once: retransmits must not double-deliver"
    );
    assert!(
        total_retransmissions(&c) > 0,
        "drops must be repaired by retransmission, not luck"
    );
    digest(&c)
}

#[test]
fn chaos_drop_storm_across_window() {
    assert_replayable(drop_storm, 12);
}

// ---------------------------------------------------------------------------
// 3. Dead peer mid-RPC: typed error reply + PeerDead within budget (§V-A)
// ---------------------------------------------------------------------------

fn dead_peer_mid_rpc(seed: u64) -> String {
    let (cfg, rnic_cfg) = fast_cfg();
    // The server process dies at t=25 ms and never comes back.
    let plan = FaultPlan::new().with(spec(25, None, FaultTarget::Node(0), FaultKind::PeerCrash));
    let c = stack(
        seed,
        plan,
        Opts {
            cfg,
            rnic_cfg,
            server_responds: false, // RPCs stay outstanding across the crash
            ..Opts::default()
        },
    );
    let (ctx, ch) = &c.clients[0];
    let errors = Rc::new(Cell::new(0u32));
    let e2 = errors.clone();
    ch.send_request_size(256, move |_, msg| {
        assert!(msg.is_error(), "the outstanding RPC must fail, not hang");
        e2.set(e2.get() + 1);
    })
    .expect("send accepted");
    let closed_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let ca = closed_at.clone();
    let w2 = c.world.clone();
    let reason: Rc<Cell<Option<CloseReason>>> = Rc::new(Cell::new(None));
    let r2 = reason.clone();
    ch.set_on_close(move |r| {
        r2.set(Some(r));
        ca.set(Some(w2.now().nanos()));
    });
    c.world.run_for(Dur::millis(400));
    assert_eq!(errors.get(), 1, "RPC waiter got exactly one error reply");
    assert_eq!(reason.get(), Some(CloseReason::PeerDead));
    assert_eq!(ctx.stats().keepalive_failures, 1);
    assert_eq!(ctx.channel_count(), 0, "resources released");
    let detect_ms = (closed_at.get().expect("closed") - 25_000_000) / 1_000_000;
    assert!(
        detect_ms < 100,
        "PeerDead within the probe budget (took {detect_ms} ms, interval 10 ms)"
    );
    digest(&c)
}

#[test]
fn chaos_dead_peer_mid_rpc() {
    assert_replayable(dead_peer_mid_rpc, 13);
}

// ---------------------------------------------------------------------------
// 4. Connect-time blackhole: the REQ vanishes, the client times out
// ---------------------------------------------------------------------------

fn connect_blackhole(seed: u64) -> String {
    let world = World::new();
    let rng = SimRng::new(seed);
    let plan = FaultPlan::new().with(spec(
        0,
        None,
        FaultTarget::Pair { from: 1, to: 0 },
        FaultKind::ConnectBlackhole,
    ));
    let guard = FaultInjector::install(&world, plan, rng.fork("faults"));
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mk = |n: u32| {
        XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(n),
            RnicConfig::default(),
            XrdmaConfig::default(),
            &rng,
        )
    };
    let server = mk(0);
    server.listen(7, |_| {});
    let client = mk(1);
    let outcome: Rc<RefCell<Option<Result<(), XrdmaError>>>> = Rc::new(RefCell::new(None));
    let o2 = outcome.clone();
    client.connect(NodeId(0), 7, move |r| {
        *o2.borrow_mut() = Some(r.map(|_| ()));
    });
    world.run_for(Dur::secs(2));
    let got = outcome.borrow().clone().expect("connect resolved");
    assert!(
        matches!(got, Err(XrdmaError::Connect("timeout"))),
        "a blackholed REQ must surface as a typed timeout, got {got:?}"
    );
    assert_eq!(client.channel_count(), 0);
    format!(
        "outcome=timeout time={} events={} injected={}",
        world.now().nanos(),
        world.events_executed(),
        guard.injected()
    )
}

#[test]
fn chaos_connect_blackhole() {
    assert_replayable(connect_blackhole, 14);
}

// ---------------------------------------------------------------------------
// 5. Connect refused, then a slow management plane: typed error, then a
//    delayed but successful establishment
// ---------------------------------------------------------------------------

fn connect_refuse_then_slow(seed: u64) -> String {
    let world = World::new();
    let rng = SimRng::new(seed);
    let plan = FaultPlan::new()
        .with(spec(
            0,
            Some(5),
            FaultTarget::Pair { from: 1, to: 0 },
            FaultKind::ConnectRefuse,
        ))
        .with(spec(
            5,
            Some(15),
            FaultTarget::Pair { from: 1, to: 0 },
            FaultKind::ConnectSlow {
                extra_ns: 20_000_000,
            },
        ));
    let guard = FaultInjector::install(&world, plan, rng.fork("faults"));
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mk = |n: u32| {
        XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(n),
            RnicConfig::default(),
            XrdmaConfig::default(),
            &rng,
        )
    };
    let server = mk(0);
    server.listen(7, |_| {});
    let client = mk(1);

    // First attempt lands in the refuse window.
    let refused: Rc<RefCell<Option<XrdmaError>>> = Rc::new(RefCell::new(None));
    let r2 = refused.clone();
    client.connect(NodeId(0), 7, move |r| {
        *r2.borrow_mut() = Some(r.err().expect("refused"));
    });
    world.run_for(Dur::millis(6));
    assert!(
        matches!(*refused.borrow(), Some(XrdmaError::Connect("refused"))),
        "refusal is a typed error: {:?}",
        refused.borrow()
    );

    // Second attempt pays the slow-management-plane penalty, then lands.
    let t0 = world.now().nanos();
    let connected_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let c2 = connected_at.clone();
    let w2 = world.clone();
    client.connect(NodeId(0), 7, move |r| {
        r.expect("establishes after the window closes");
        c2.set(Some(w2.now().nanos()));
    });
    world.run_for(Dur::millis(100));
    let took_ms = (connected_at.get().expect("connected") - t0) / 1_000_000;
    assert!(
        took_ms >= 20,
        "the slow window must add its 20 ms penalty (took {took_ms} ms)"
    );
    assert_eq!(client.channel_count(), 1);
    format!(
        "refused-then-connected took_ms={took_ms} time={} events={} injected={}",
        world.now().nanos(),
        world.events_executed(),
        guard.injected()
    )
}

#[test]
fn chaos_connect_refuse_then_slow() {
    assert_replayable(connect_refuse_then_slow, 15);
}

// ---------------------------------------------------------------------------
// 6. Duplicated ACKs: the client's receive path sees everything twice
// ---------------------------------------------------------------------------

fn duplicated_acks(seed: u64) -> String {
    // Every packet arriving at the client (ACKs and responses alike) is
    // delivered twice for 40 ms.
    let plan = FaultPlan::new().with(spec(
        20,
        Some(40),
        FaultTarget::Node(1),
        FaultKind::Duplicate { prob: 1.0 },
    ));
    let c = stack(seed, plan, Opts::default());
    let done = blast(&c, 32, 1024);
    c.world.run_for(Dur::millis(400));
    assert_eq!(done.get(), 32, "all RPCs complete");
    let (ctx, ch) = &c.clients[0];
    assert!(
        ctx.rnic().stats().fault_rx_dups > 0,
        "duplicates were actually injected"
    );
    assert_eq!(
        ch.stats().rpcs_completed,
        32,
        "idempotent: each RPC completes exactly once"
    );
    assert_eq!(
        ch.stats().msgs_received,
        32,
        "duplicate responses are filtered by the seq window"
    );
    assert!(!ch.is_closed());
    digest(&c)
}

#[test]
fn chaos_duplicated_acks_are_idempotent() {
    assert_replayable(duplicated_acks, 16);
}

// ---------------------------------------------------------------------------
// 7. Corrupted eager payloads: ICRC-style drop, repaired by go-back-N
// ---------------------------------------------------------------------------

fn corrupted_eager(seed: u64) -> String {
    // 20% of packets arriving at the server fail their ICRC for 40 ms.
    let plan = FaultPlan::new().with(spec(
        20,
        Some(40),
        FaultTarget::Node(0),
        FaultKind::Corrupt { prob: 0.2 },
    ));
    let c = stack(seed, plan, Opts::default());
    let done = blast(&c, 64, 1024);
    c.world.run_for(Dur::millis(600));
    assert_eq!(done.get(), 64, "corruption is repaired, not surfaced");
    assert!(
        c.server.rnic().stats().fault_rx_drops > 0,
        "corrupt packets were actually discarded"
    );
    assert!(
        total_retransmissions(&c) > 0,
        "recovery came from retransmission"
    );
    let sch = c.server_chans.borrow()[0].clone();
    assert_eq!(sch.stats().msgs_received, 64, "exactly once");
    digest(&c)
}

#[test]
fn chaos_corrupted_eager_payload() {
    assert_replayable(corrupted_eager, 17);
}

// ---------------------------------------------------------------------------
// 8. Buffer squeeze: the server downlink's queue shrinks to one packet
// ---------------------------------------------------------------------------

fn buffer_squeeze(seed: u64) -> String {
    let plan = FaultPlan::new().with(spec(
        19,
        Some(15),
        edge("tor0->host0"),
        FaultKind::BufferSqueeze { limit_bytes: 4096 },
    ));
    let c = stack(
        seed,
        plan,
        Opts {
            n_clients: 4,
            ..Opts::default()
        },
    );
    let done = blast(&c, 8, 8 * 1024);
    c.world.run_for(Dur::millis(500));
    assert_eq!(
        done.get(),
        4 * 8,
        "the squeeze drains and traffic completes"
    );
    assert!(
        c.fabric.stats().snapshot().drops > 0,
        "the squeezed queue must tail-drop under the incast"
    );
    assert!(total_retransmissions(&c) > 0);
    digest(&c)
}

#[test]
fn chaos_buffer_squeeze() {
    assert_replayable(buffer_squeeze, 18);
}

// ---------------------------------------------------------------------------
// 9. RNIC stall: completions held back by a CQE delay window
// ---------------------------------------------------------------------------

fn cqe_delay_stall(seed: u64) -> String {
    let plan = FaultPlan::new().with(spec(
        20,
        Some(15),
        FaultTarget::Node(1),
        FaultKind::CqeDelay {
            delay_ns: 500_000, // every client-side CQE is 500 µs late
        },
    ));
    let c = stack(seed, plan, Opts::default());
    let done = blast(&c, 16, 1024);
    c.world.run_for(Dur::millis(400));
    assert_eq!(done.get(), 16, "a stalled NIC delays, never loses");
    assert!(c.guard.injected() > 0, "delays were injected");
    assert!(!c.clients[0].1.is_closed());
    digest(&c)
}

#[test]
fn chaos_cqe_delay_stall() {
    assert_replayable(cqe_delay_stall, 19);
}

// ---------------------------------------------------------------------------
// 10. QP error transition on an idle channel: the probe path must notice
//     (§V-A — this is the probe-post asymmetry regression)
// ---------------------------------------------------------------------------

fn qp_error_idle_channel(seed: u64) -> String {
    let (cfg, rnic_cfg) = fast_cfg();
    let plan = FaultPlan::new().with(spec(30, None, FaultTarget::Node(1), FaultKind::QpError));
    let c = stack(
        seed,
        plan,
        Opts {
            cfg,
            rnic_cfg,
            ..Opts::default()
        },
    );
    let (ctx, ch) = &c.clients[0];
    let reason: Rc<Cell<Option<CloseReason>>> = Rc::new(Cell::new(None));
    let closed_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let (r2, ca, w2) = (reason.clone(), closed_at.clone(), c.world.clone());
    ch.set_on_close(move |r| {
        r2.set(Some(r));
        ca.set(Some(w2.now().nanos()));
    });
    c.world.run_for(Dur::millis(300));
    assert_eq!(
        reason.get(),
        Some(CloseReason::PeerDead),
        "an idle channel whose QP errors must not outlive it"
    );
    assert_eq!(ctx.channel_count(), 0);
    let detect_ms = (closed_at.get().expect("closed") - 30_000_000) / 1_000_000;
    assert!(
        detect_ms < 50,
        "probe path detects the dead QP within a few intervals ({detect_ms} ms)"
    );
    digest(&c)
}

#[test]
fn chaos_qp_error_on_idle_channel() {
    assert_replayable(qp_error_idle_channel, 20);
}

// ---------------------------------------------------------------------------
// 11. Peer pause shorter than the retry budget: stall, then full recovery
// ---------------------------------------------------------------------------

fn peer_pause_recovers(seed: u64) -> String {
    // The server freezes for 20 ms — well inside the default go-back-N
    // budget (64 ms × 7 retries) — then replays its buffered arrivals.
    let plan = FaultPlan::new().with(spec(
        25,
        Some(20),
        FaultTarget::Node(0),
        FaultKind::PeerPause,
    ));
    let c = stack(seed, plan, Opts::default());
    let done = blast(&c, 32, 1024);
    c.world.run_for(Dur::millis(500));
    assert_eq!(done.get(), 32, "everything completes after the thaw");
    let (ctx, ch) = &c.clients[0];
    assert!(
        !ch.is_closed(),
        "a short pause must not be declared a death"
    );
    assert_eq!(ctx.stats().keepalive_failures, 0);
    digest(&c)
}

#[test]
fn chaos_peer_pause_recovers() {
    assert_replayable(peer_pause_recovers, 21);
}

// ---------------------------------------------------------------------------
// 12. Local OOM on the receive path: the drop is typed and counted
// ---------------------------------------------------------------------------

fn oom_drop_counted(seed: u64) -> String {
    // Squeeze the server's memory cache to a single 4 MiB MR, then land
    // sixteen 1 MiB rendezvous messages at once: the later allocations
    // must fail, and each failure must be counted (never silent).
    let mut server_cfg = XrdmaConfig::default();
    server_cfg.memcache.max_mrs = 1;
    let c = stack(
        seed,
        FaultPlan::new(),
        Opts {
            server_cfg: Some(server_cfg),
            ..Opts::default()
        },
    );
    let (_, ch) = &c.clients[0];
    for _ in 0..16 {
        ch.send_oneway_size(1024 * 1024).expect("send accepted");
    }
    c.world.run_for(Dur::millis(200));
    let sch = c.server_chans.borrow()[0].clone();
    let st = sch.stats();
    assert!(
        st.oom_drops > 0,
        "memcache exhaustion must be visible in ChannelStats ({st:?})"
    );
    assert!(
        st.msgs_received > st.oom_drops,
        "some messages landed before the cache filled"
    );
    digest(&c)
}

#[test]
fn chaos_oom_drop_is_counted() {
    assert_replayable(oom_drop_counted, 22);
}

// ---------------------------------------------------------------------------
// 13. Peer crash mid-re-establishment: an LRU-evicted mux slot is being
//     re-attached when the peer dies — the parked RPC must fail typed,
//     the pool must stay clean, and other peers must be unaffected.
// ---------------------------------------------------------------------------

fn mux_peer_crash_mid_reestablish(seed: u64) -> String {
    let world = World::new();
    let rng = SimRng::new(seed);
    // Node 0 dies at t=30 ms — exactly while the client mux is
    // re-establishing its evicted slot toward it. The ConnectSlow window
    // holds that re-establishment REQ in the management plane so the
    // crash is guaranteed to land mid-connect, not before or after.
    let plan = FaultPlan::new()
        .with(spec(
            25,
            Some(20),
            FaultTarget::Pair { from: 2, to: 0 },
            FaultKind::ConnectSlow {
                extra_ns: 10_000_000,
            },
        ))
        .with(spec(30, None, FaultTarget::Node(0), FaultKind::PeerCrash));
    let guard = FaultInjector::install(&world, plan, rng.fork("faults"));
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(3), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let (cfg_base, rnic_cfg) = fast_cfg();
    let mut cfg = cfg_base;
    cfg.mux_pool = 1; // every peer switch is an eviction
    cfg.mux_lanes = 1;
    cfg.use_srq = true;
    let mk = |n: u32| {
        XrdmaContext::on_new_node(&fabric, &cm, NodeId(n), rnic_cfg.clone(), cfg.clone(), &rng)
    };
    let mut server_muxes = Vec::new();
    for n in 0..2 {
        let s = mk(n);
        let sm = xrdma_core::ChannelMux::new(&s, 7);
        sm.serve(|_, _, reply| {
            if let Some(r) = reply {
                let _ = r.reply_size(64);
            }
        });
        server_muxes.push((s, sm));
    }
    let client = mk(2);
    let cmux = xrdma_core::ChannelMux::new(&client, 7);
    let lc0 = cmux.open(NodeId(0));
    let lc1 = cmux.open(NodeId(1));
    let ok = Rc::new(Cell::new(0u32));
    let errs = Rc::new(Cell::new(0u32));
    let count = |ok: &Rc<Cell<u32>>, errs: &Rc<Cell<u32>>| {
        let (o, e) = (ok.clone(), errs.clone());
        move |msg: xrdma_core::XrdmaMsg| {
            if msg.is_error() {
                e.set(e.get() + 1);
            } else {
                o.set(o.get() + 1);
            }
        }
    };
    // t=0: slot → peer 0 establishes lazily and completes an RPC.
    lc0.send_request_size(256, count(&ok, &errs)).expect("send");
    world.run_for(Dur::millis(15));
    // t=15: touch peer 1 — pool of 1 evicts the peer-0 slot.
    lc1.send_request_size(256, count(&ok, &errs)).expect("send");
    world.run_for(Dur::millis(14));
    // t=29: return to peer 0 — eviction of slot 1, re-establishment
    // toward peer 0 goes in flight... and the peer dies under it (t=30).
    lc0.send_request_size(256, count(&ok, &errs)).expect("send");
    world.run_for(Dur::secs(3));
    assert_eq!(ok.get(), 2, "pre-crash RPCs completed");
    assert_eq!(
        errs.get(),
        1,
        "the RPC parked behind the dying re-establishment fails typed, never hangs"
    );
    // The failed slot left the pool; the surviving peer is reachable.
    lc1.send_request_size(256, count(&ok, &errs)).expect("send");
    world.run_for(Dur::millis(200));
    assert_eq!(ok.get(), 3, "peer 1 unaffected by peer 0's death");
    let st = cmux.stats();
    assert!(st.evictions >= 2, "both touches evicted ({})", st.evictions);
    assert!(st.reestablishments >= 1);
    assert_eq!(st.dup_drops, 0);
    assert!(st.pool_live <= 1, "pool bound intact after the crash");
    format!(
        "{}\n{}\n{}\ntime={} events={} injected={}",
        serde_json::to_string(&st).expect("json"),
        serde_json::to_string(&client.stats()).expect("json"),
        serde_json::to_string(&client.rnic().stats()).expect("json"),
        world.now().nanos(),
        world.events_executed(),
        guard.injected()
    )
}

#[test]
fn chaos_mux_peer_crash_mid_reestablish() {
    assert_replayable(mux_peer_crash_mid_reestablish, 23);
}

// ---------------------------------------------------------------------------
// Golden file: the canonical chaos scenario's telemetry, pinned (§VI).
// A seeded link flap during an 8-client incast must export exactly the
// run log committed at tests/golden/chaos_link_flap.jsonl. Regenerate
// with XRDMA_UPDATE_GOLDEN=1 after an intentional telemetry change.
// ---------------------------------------------------------------------------

fn golden_scenario_jsonl() -> String {
    let world = World::new();
    let hub_guard =
        xrdma_telemetry::TelemetryHub::install(&world, xrdma_telemetry::HubConfig::default());
    let rng = SimRng::new(4242);
    let plan = FaultPlan::new()
        .with(spec(25, Some(5), edge("tor0->host0"), FaultKind::LinkDown))
        .with(spec(36, Some(3), edge("tor0->host0"), FaultKind::LinkDown));
    let _fg = FaultInjector::install(&world, plan, rng.fork("faults"));
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(9), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let server = XrdmaContext::on_new_node(
        &fabric,
        &cm,
        NodeId(0),
        RnicConfig::default(),
        XrdmaConfig::default(),
        &rng,
    );
    server.listen(7, |ch| {
        ch.set_on_request(|ch, _msg, token| {
            let _ = ch.respond_size(token, 128);
        });
    });
    let mut clients = Vec::new();
    for i in 1..9u32 {
        let c = XrdmaContext::on_new_node(
            &fabric,
            &cm,
            NodeId(i),
            RnicConfig::default(),
            XrdmaConfig::default(),
            &rng,
        );
        let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        c.connect(NodeId(0), 7, move |r| {
            *s2.borrow_mut() = Some(r.expect("connect"));
        });
        clients.push((c, slot));
    }
    world.run_for(Dur::millis(20));
    let done = Rc::new(Cell::new(0u64));
    for (_, slot) in &clients {
        let ch = slot.borrow().clone().expect("channel");
        for _ in 0..16 {
            let d = done.clone();
            ch.send_request_size(48 * 1024, move |_, _| d.set(d.get() + 1))
                .expect("send accepted");
        }
    }
    world.run_for(Dur::millis(500));
    assert_eq!(done.get(), 8 * 16, "the golden scenario completes");
    xrdma_telemetry::export::to_jsonl(&hub_guard.events())
}

#[test]
fn chaos_golden_link_flap_jsonl() {
    let got = golden_scenario_jsonl();
    assert!(
        got.contains("\"ev\":\"fault-window\""),
        "fault windows appear in the run log"
    );
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/chaos_link_flap.jsonl");
    if std::env::var_os("XRDMA_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden/");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with XRDMA_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        got == want,
        "flight-recorder JSONL diverged from the golden file \
         ({} vs {} lines); if the change is intentional, regenerate with \
         XRDMA_UPDATE_GOLDEN=1",
        got.lines().count(),
        want.lines().count()
    );
}
