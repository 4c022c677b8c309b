//! End-to-end middleware tests: connection establishment, the mixed
//! message model, seq-ack/RNR-freedom, keepalive, NOP deadlock breaking,
//! flow control and the caches — the behaviours §IV–§V promise.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use xrdma_core::{PollMode, XrdmaChannel, XrdmaConfig, XrdmaContext, XrdmaError};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};

struct Net {
    world: Rc<World>,
    fabric: Rc<Fabric>,
    cm: Rc<ConnManager>,
    rng: SimRng,
}

fn net(fcfg: FabricConfig, seed: u64) -> Net {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), fcfg, &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    Net {
        world,
        fabric,
        cm,
        rng,
    }
}

fn ctx(net: &Net, node: u32, cfg: XrdmaConfig) -> Rc<XrdmaContext> {
    XrdmaContext::on_new_node(
        &net.fabric,
        &net.cm,
        NodeId(node),
        RnicConfig::default(),
        cfg,
        &net.rng,
    )
}

/// Connect client(0) → server(1) at svc, return both channel ends.
fn connect_pair(
    net: &Net,
    client: &Rc<XrdmaContext>,
    server: &Rc<XrdmaContext>,
    svc: u16,
) -> (Rc<XrdmaChannel>, Rc<XrdmaChannel>) {
    let server_ch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let sc = server_ch.clone();
    server.listen(svc, move |ch| {
        *sc.borrow_mut() = Some(ch);
    });
    let client_ch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let cc = client_ch.clone();
    client.connect(NodeId(server.node().0), svc, move |r| {
        *cc.borrow_mut() = Some(r.expect("connect"));
    });
    net.world.run_for(Dur::millis(20));
    let c = client_ch.borrow().clone().expect("client channel");
    let s = server_ch.borrow().clone().expect("server channel");
    (c, s)
}

#[test]
fn rpc_roundtrip_with_data_integrity() {
    let net = net(FabricConfig::pair(), 1);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect_pair(&net, &client, &server, 7);

    s.set_on_request(|ch, msg, token| {
        assert_eq!(msg.body().as_ref(), b"ping-payload");
        let mut reply = msg.body().to_vec();
        reply.reverse();
        ch.respond(token, Bytes::from(reply)).unwrap();
    });

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    c.send_request(Bytes::from_static(b"ping-payload"), move |_, resp| {
        *g.borrow_mut() = resp.body().to_vec();
    })
    .unwrap();
    net.world.run_for(Dur::millis(5));
    assert_eq!(got.borrow().as_slice(), b"daolyap-gnip");
    assert_eq!(c.stats().rpcs_completed, 1);
    assert_eq!(c.stats().rpcs_outstanding, 0);
}

#[test]
fn large_message_uses_read_replace_write() {
    let mut cfg = XrdmaConfig::default();
    cfg.memcache.backed = true;
    let net = net(FabricConfig::pair(), 2);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    let (c, s) = connect_pair(&net, &client, &server, 7);

    // 256 KiB payload: far over small_msg_size → descriptor + receiver
    // RDMA Read.
    let payload: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
    let expect = payload.clone();
    let got = Rc::new(Cell::new(false));
    let g = got.clone();
    s.set_on_request(move |ch, msg, token| {
        assert_eq!(msg.len, 256 * 1024);
        let body = msg.body();
        assert_eq!(body.len(), expect.len());
        assert_eq!(
            body.as_ref(),
            expect.as_slice(),
            "bytes survived the read path"
        );
        ch.respond_size(token, 100).unwrap();
    });
    c.send_request(Bytes::from(payload), move |_, _| g.set(true))
        .unwrap();
    net.world.run_for(Dur::millis(20));
    assert!(got.get());
    assert_eq!(c.stats().large_msgs, 1, "request took the large path");
    assert_eq!(s.stats().small_msgs, 1, "the 100-B response was eager");
    // Reads from the server side actually happened.
    assert!(server.rnic().stats().data_bytes_rx > 200 * 1024);
}

#[test]
fn rnr_free_under_window_pressure() {
    // Blast far more messages than the window; the seq-ack window must
    // pace the sender so the receiver NEVER produces an RNR NAK (Fig 9).
    let net = net(FabricConfig::pair(), 3);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect_pair(&net, &client, &server, 7);
    let count = Rc::new(Cell::new(0u32));
    let cc = count.clone();
    s.set_on_request(move |_, _, _| {
        cc.set(cc.get() + 1);
    });
    for _ in 0..2000 {
        c.send_oneway_size(512).unwrap();
    }
    net.world.run_for(Dur::millis(200));
    assert_eq!(count.get(), 2000, "all delivered");
    assert_eq!(server.rnic().stats().rnr_naks_sent, 0, "RNR-free");
    assert_eq!(client.rnic().stats().rnr_naks_received, 0);
    assert!(
        c.stats().window_stalls > 0,
        "window actually gated the burst"
    );
}

#[test]
fn keepalive_detects_dead_peer_and_releases_channel() {
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(20);
    cfg.timer_period = Dur::millis(5);
    let mut rnic_cfg = RnicConfig::default();
    rnic_cfg.retx_timeout = Dur::millis(2);
    rnic_cfg.retry_count = 2;
    let world = World::new();
    let rng = SimRng::new(4);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let client =
        XrdmaContext::on_new_node(&fabric, &cm, NodeId(0), rnic_cfg.clone(), cfg.clone(), &rng);
    let server = XrdmaContext::on_new_node(&fabric, &cm, NodeId(1), rnic_cfg, cfg, &rng);
    let net = Net {
        world: world.clone(),
        fabric,
        cm,
        rng,
    };
    let (c, _s) = connect_pair(&net, &client, &server, 7);
    assert_eq!(client.channel_count(), 1);

    // Kill the server machine. No data traffic — only keepalive can
    // notice.
    server.rnic().crash();
    world.run_for(Dur::millis(200));
    assert!(c.is_closed(), "keepalive tore the channel down");
    assert_eq!(client.channel_count(), 0, "resources released");
    assert_eq!(client.stats().keepalive_failures, 1);
    assert!(c.stats().keepalive_probes >= 1);
}

#[test]
fn keepalive_quiet_on_healthy_idle_channel() {
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(10);
    cfg.timer_period = Dur::millis(2);
    let net = net(FabricConfig::pair(), 5);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    let (c, _s) = connect_pair(&net, &client, &server, 7);
    net.world.run_for(Dur::millis(200));
    assert!(!c.is_closed(), "healthy idle channel stays up");
    assert!(
        c.stats().keepalive_probes >= 5,
        "probes flowed: {}",
        c.stats().keepalive_probes
    );
    assert_eq!(client.stats().keepalive_failures, 0);
}

#[test]
fn bidirectional_flood_does_not_deadlock() {
    // Both sides fill their windows simultaneously with one-way traffic;
    // the NOP mechanism (§V-B) must keep acks flowing.
    let mut cfg = XrdmaConfig::default();
    cfg.inflight_depth = 8;
    cfg.ack_after = 4;
    cfg.nop_timeout = Dur::millis(1);
    cfg.timer_period = Dur::millis(1);
    let net = net(FabricConfig::pair(), 6);
    let a = ctx(&net, 0, cfg.clone());
    let b = ctx(&net, 1, cfg);
    let (ca, cb) = connect_pair(&net, &a, &b, 7);
    let got_a = Rc::new(Cell::new(0u32));
    let got_b = Rc::new(Cell::new(0u32));
    let ga = got_a.clone();
    ca.set_on_request(move |_, _, _| ga.set(ga.get() + 1));
    let gb = got_b.clone();
    cb.set_on_request(move |_, _, _| gb.set(gb.get() + 1));
    for _ in 0..500 {
        ca.send_oneway_size(256).unwrap();
        cb.send_oneway_size(256).unwrap();
    }
    net.world.run_for(Dur::secs(2));
    assert_eq!(got_b.get(), 500, "a→b all delivered");
    assert_eq!(got_a.get(), 500, "b→a all delivered");
}

#[test]
fn flow_control_queues_beyond_outstanding_limit() {
    let mut cfg = XrdmaConfig::default();
    cfg.flowctl.max_outstanding = 2;
    cfg.inflight_depth = 64;
    let net = net(FabricConfig::pair(), 7);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    let (c, s) = connect_pair(&net, &client, &server, 7);
    let n = Rc::new(Cell::new(0u32));
    let nn = n.clone();
    s.set_on_request(move |_, _, _| nn.set(nn.get() + 1));
    for _ in 0..30 {
        c.send_oneway_size(1024).unwrap();
    }
    // Posts are deferred through the thread queue behind the send-call CPU
    // charges (30 × ~1.6 µs); let the posts reach the flow gate.
    net.world.run_for(Dur::micros(80));
    let (outstanding, queued) = client.flow_depths();
    assert!(outstanding <= 2);
    assert!(queued > 0, "extra WRs buffered in software (§V-C)");
    net.world.run_for(Dur::millis(100));
    assert_eq!(n.get(), 30, "queue drained in order");
    let (o2, q2) = client.flow_depths();
    assert_eq!((o2, q2), (0, 0));
}

#[test]
fn large_transfers_fragmented_at_64k() {
    let cfg = XrdmaConfig::default();
    let net = net(FabricConfig::pair(), 8);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    let (c, s) = connect_pair(&net, &client, &server, 7);
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    s.set_on_request(move |_, msg, _| {
        assert_eq!(msg.len, 1024 * 1024);
        d.set(true);
    });
    c.send_oneway_size(1024 * 1024).unwrap();
    net.world.run_for(Dur::millis(50));
    assert!(done.get());
    // 1 MiB at 64 KiB fragments = 16 RDMA reads from the server side.
    assert_eq!(s.stats().fragments, 16);
}

#[test]
fn graceful_close_propagates() {
    let net = net(FabricConfig::pair(), 9);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect_pair(&net, &client, &server, 7);
    let reason = Rc::new(RefCell::new(None));
    let r = reason.clone();
    s.set_on_close(move |why| *r.borrow_mut() = Some(why));
    c.close();
    net.world.run_for(Dur::millis(5));
    assert!(c.is_closed());
    assert!(s.is_closed(), "peer saw the close");
    assert_eq!(
        *reason.borrow(),
        Some(xrdma_core::channel::CloseReason::Remote)
    );
    assert_eq!(client.channel_count(), 0);
    assert_eq!(server.channel_count(), 0);
    // QPs were recycled into the caches, not leaked.
    assert_eq!(client.qpcache().len(), 1);
    assert_eq!(server.qpcache().len(), 1);
}

#[test]
fn qp_cache_accelerates_reconnect() {
    let net = net(FabricConfig::pair(), 10);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());

    // First connect: both sides create fresh QPs.
    let (c, _s) = connect_pair(&net, &client, &server, 7);
    let t0 = net.world.now();
    c.close();
    net.world.run_for(Dur::millis(5));

    // Second connect reuses pooled QPs on both sides and must be faster.
    let start = net.world.now();
    let done_at = Rc::new(Cell::new(t0));
    let d = done_at.clone();
    let w = net.world.clone();
    client.connect(NodeId(1), 7, move |r| {
        r.expect("reconnect");
        d.set(w.now());
    });
    net.world.run_for(Dur::millis(20));
    let reuse_us = done_at.get().since(start).as_micros_f64();
    // Warm reconnect rides both caches: QP reuse AND rdma_cm's cached
    // address/route resolution — ~850 µs total (the per-connection cost
    // behind the paper's "4096 connections in ~3 s").
    assert!(
        (600.0..1400.0).contains(&reuse_us),
        "warm reconnect took {reuse_us} µs (expect ≈850)"
    );
    assert!(client.qpcache().hits() >= 1);
    assert!(server.qpcache().hits() >= 1);
}

#[test]
fn memcache_tracks_occupy_and_in_use() {
    let mut cfg = XrdmaConfig::default();
    cfg.memcache.mr_bytes = 64 * 1024;
    cfg.memcache.keep_idle = 1;
    let net = net(FabricConfig::pair(), 11);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    let (c, s) = connect_pair(&net, &client, &server, 7);
    s.set_on_request(|_, _, _| {});
    // Send several large messages: buffers pin until acked, then release.
    for _ in 0..8 {
        c.send_oneway_size(48 * 1024).unwrap();
    }
    let st = client.stats();
    assert!(st.memcache_occupied > 0 || client.memcache().occupied_bytes() > 0);
    net.world.run_for(Dur::secs(1));
    // After acks + shrink timer, in-use returns to the recv-slot baseline.
    let in_use = client.memcache().in_use_bytes();
    let baseline = client.memcache().in_use_bytes();
    assert_eq!(in_use, baseline);
    assert!(client.memcache().shrink_count() > 0 || client.memcache().arena_count() <= 3);
}

#[test]
fn set_flag_changes_runtime_behaviour() {
    let net = net(FabricConfig::pair(), 12);
    let client = ctx(&net, 0, XrdmaConfig::default());
    client.set_flag("keepalive_intv_ms", "5").unwrap();
    assert_eq!(client.config().keepalive_intv, Dur::millis(5));
    assert!(client.set_flag("use_srq", "true").is_err(), "offline key");
}

#[test]
fn tracing_round_trip_records_decomposition() {
    let mut cfg = XrdmaConfig::default();
    cfg.msg_mode = xrdma_core::MsgMode::ReqRsp;
    cfg.trace_sample_mask = 0; // trace everything
    let net = net(FabricConfig::pair(), 13);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    let (c, s) = connect_pair(&net, &client, &server, 7);
    s.set_on_request(|ch, _msg, token| {
        ch.respond_size(token, 64).unwrap();
    });
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    c.send_request_size(128, move |_, _| d.set(true)).unwrap();
    net.world.run_for(Dur::millis(10));
    assert!(done.get());
    let traces = client.all_traces();
    assert_eq!(traces.len(), 1);
    let t = traces[0];
    // With zero skew the decomposition is physical: 0 < one-way < rtt.
    let oneway = t.request_oneway_ns(0);
    assert!(oneway > 0, "one-way {oneway}");
    assert!((oneway as u64) < t.rtt_ns());
    assert!(client.trace_request(t.trace_id).is_some());
}

#[test]
fn many_channels_one_context() {
    // One server context accepting channels from 8 client contexts —
    // the thousands-of-connections-per-machine shape, scaled down.
    let net = net(FabricConfig::rack(9), 14);
    let server = ctx(&net, 0, XrdmaConfig::default());
    let total = Rc::new(Cell::new(0u64));
    let t = total.clone();
    server.listen(7, move |ch| {
        let t2 = t.clone();
        ch.set_on_request(move |ch, msg, token| {
            t2.set(t2.get() + msg.len);
            ch.respond_size(token, 16).unwrap();
        });
    });
    let mut clients = Vec::new();
    for i in 1..9u32 {
        let cl = ctx(&net, i, XrdmaConfig::default());
        let chs: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let c2 = chs.clone();
        cl.connect(NodeId(0), 7, move |r| {
            *c2.borrow_mut() = Some(r.unwrap());
        });
        clients.push((cl, chs));
    }
    net.world.run_for(Dur::millis(30));
    assert_eq!(server.channel_count(), 8);
    let acked = Rc::new(Cell::new(0u32));
    for (_, chs) in &clients {
        let ch = chs.borrow().clone().unwrap();
        for _ in 0..50 {
            let a = acked.clone();
            ch.send_request_size(1000, move |_, _| a.set(a.get() + 1))
                .unwrap();
        }
    }
    net.world.run_for(Dur::millis(200));
    assert_eq!(acked.get(), 8 * 50, "all RPCs answered");
    assert_eq!(total.get(), 8 * 50 * 1000);
}

#[test]
fn deterministic_middleware_run() {
    let run = |seed: u64| {
        let net = net(FabricConfig::pair(), seed);
        let client = ctx(&net, 0, XrdmaConfig::default());
        let server = ctx(&net, 1, XrdmaConfig::default());
        let (c, s) = connect_pair(&net, &client, &server, 7);
        s.set_on_request(|ch, _m, tok| ch.respond_size(tok, 32).unwrap());
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..100 {
            let d = done.clone();
            c.send_request_size(200, move |_, _| d.set(d.get() + 1))
                .unwrap();
        }
        net.world.run_for(Dur::millis(100));
        assert_eq!(done.get(), 100);
        (net.world.now().nanos(), net.world.events_executed())
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn backpressure_error_at_flow_queue_cap() {
    let mut cfg = XrdmaConfig::default();
    cfg.flowctl.max_outstanding = 1;
    cfg.flowctl.queue_cap = 8;
    cfg.inflight_depth = 256; // window is not the limiter here
    let net = net(FabricConfig::pair(), 30);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    let (c, s) = connect_pair(&net, &client, &server, 7);
    s.set_on_request(|_, _, _| {});
    // Flood: the sends all *accept* (the posts are deferred), but once the
    // software queue passes the cap, further sends refuse with
    // Backpressure.
    let mut accepted: u64 = 0;
    let mut refused = 0;
    for _burst in 0..25 {
        for _ in 0..20 {
            match c.send_oneway_size(1024) {
                Ok(()) => accepted += 1,
                Err(XrdmaError::Backpressure) => refused += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        // Let the deferred posts reach the flow gate.
        net.world.run_for(Dur::micros(50));
    }
    assert!(refused > 0, "cap enforced ({accepted} accepted)");
    // Back off and drain: the channel recovers fully.
    net.world.run_for(Dur::secs(1));
    assert_eq!(s.stats().msgs_received, accepted, "accepted all delivered");
    assert!(
        c.send_oneway_size(1024).is_ok(),
        "accepts again after drain"
    );
}

/// Round-trip times of two 64 B RPCs under `mode`: the first issued after
/// 1 ms of idling, the second `gap` after the first one's response landed.
fn cold_then_gap_rtt(mode: PollMode, gap: Dur) -> (u64, u64) {
    let mut cfg = XrdmaConfig::default();
    cfg.poll_mode = mode;
    let net = net(FabricConfig::pair(), 40);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    let (c, s) = connect_pair(&net, &client, &server, 7);
    s.set_on_request(|ch, _m, tok| ch.respond_size(tok, 64).unwrap());
    net.world.run_for(Dur::millis(1));
    let rtts = Rc::new(RefCell::new(Vec::new()));
    let (w, r) = (net.world.clone(), rtts.clone());
    let t0 = w.now();
    c.send_request_size(64, move |ch, _| {
        r.borrow_mut().push(w.now().since(t0).as_nanos());
        let (ch, w2) = (ch.clone(), w.clone());
        w.schedule_in(gap, move || {
            let t1 = w2.now();
            ch.send_request_size(64, move |_, _| {
                r.borrow_mut().push(w2.now().since(t1).as_nanos());
            })
            .unwrap();
        });
    })
    .unwrap();
    net.world.run_for(Dur::millis(1));
    let rtts = rtts.borrow();
    assert_eq!(rtts.len(), 2, "both RPCs completed");
    (rtts[0], rtts[1])
}

/// §IV-B wake-up rule, pinned in virtual nanoseconds. A wake-up costs
/// 2 µs. `Busy` never pays one; `Event` pays one on each side of every
/// RPC. `Hybrid` pays one only when the server's last pump is more than
/// 100 µs old (the client's own send completion re-warms it before the
/// response lands): after 1 ms of idle and after a 120 µs gap, but not
/// straight after traffic or after an 80 µs gap.
#[test]
fn hybrid_polling_pays_wakeups_only_after_idle() {
    // (gap in µs, second RTT under Busy, Hybrid's extra on it). The first
    // RPC follows 1 ms of idle: 9 648 ns under Busy.
    for (gap, busy, hybrid_extra) in [(0, 10_968, 0), (80, 9_148, 0), (120, 9_148, 2_000)] {
        let rtt = |mode| cold_then_gap_rtt(mode, Dur::micros(gap));
        assert_eq!(rtt(PollMode::Busy), (9_648, busy), "Busy, gap {gap} µs");
        assert_eq!(
            rtt(PollMode::Hybrid),
            (9_648 + 2_000, busy + hybrid_extra),
            "Hybrid, gap {gap} µs"
        );
        assert_eq!(
            rtt(PollMode::Event),
            (9_648 + 4_000, busy + 4_000),
            "Event, gap {gap} µs"
        );
    }
}

#[test]
fn channel_edge_cases() {
    let net = net(FabricConfig::pair(), 31);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect_pair(&net, &client, &server, 7);
    // Oversized message refused up front.
    let huge = xrdma_core::config::MAX_MSG_SIZE + 1;
    assert!(matches!(
        c.send_oneway_size(huge),
        Err(XrdmaError::TooLarge(_))
    ));
    // Handler replacement: the last one wins.
    let first = Rc::new(Cell::new(0u32));
    let second = Rc::new(Cell::new(0u32));
    let f = first.clone();
    s.set_on_request(move |_, _, _| f.set(f.get() + 1));
    let s2 = second.clone();
    s.set_on_request(move |_, _, _| s2.set(s2.get() + 1));
    c.send_oneway_size(64).unwrap();
    net.world.run_for(Dur::millis(5));
    assert_eq!(first.get(), 0);
    assert_eq!(second.get(), 1);
    // Double close is idempotent; sending after close errors.
    c.close();
    c.close();
    net.world.run_for(Dur::millis(5));
    assert!(matches!(
        c.send_oneway_size(64),
        Err(XrdmaError::ChannelClosed)
    ));
    assert_eq!(client.stats().channels_closed_total, 1, "closed once");
}
