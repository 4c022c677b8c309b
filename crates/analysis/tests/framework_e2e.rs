//! End-to-end tests of the analysis framework over live middleware: the
//! Table II bug-type → tracking-method matrix in action.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use xrdma_analysis::clocksync::ClockSync;
use xrdma_analysis::monitor::Monitor;
use xrdma_analysis::xrperf::{FlowModel, XrPerf};
use xrdma_analysis::{xrstat, Filter, MockTransport, Tracer, XrAdm, XrPing};
use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::tcp::TcpStack;
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

fn connect(
    net: &Net,
    client: &Rc<XrdmaContext>,
    server: &Rc<XrdmaContext>,
    svc: u16,
) -> (Rc<XrdmaChannel>, Rc<XrdmaChannel>) {
    let sch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let s2 = sch.clone();
    server.listen(svc, move |ch| *s2.borrow_mut() = Some(ch));
    let cch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let c2 = cch.clone();
    client.connect(NodeId(server.node().0), svc, move |r| {
        *c2.borrow_mut() = Some(r.unwrap());
    });
    net.world.run_for(Dur::millis(20));
    let c = cch.borrow().clone().unwrap();
    let s = sch.borrow().clone().unwrap();
    (c, s)
}

#[test]
fn clocksync_estimates_injected_skew() {
    let net = net(FabricConfig::pair(), 1);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    // Server clock runs 5 µs ahead of the client.
    server.clock_skew_ns.set(5_000);
    let (c, s) = connect(&net, &client, &server, 7);
    ClockSync::serve(&s);
    let cs = ClockSync::new();
    cs.probe(&c, 16);
    net.world.run_for(Dur::millis(50));
    assert_eq!(cs.sample_count(), 16);
    let est = cs.offset_ns().unwrap();
    assert!(
        (est - 5_000).abs() < 1_500,
        "offset estimate {est} vs true 5000"
    );
}

#[test]
fn tracer_decomposes_latency_with_clock_correction() {
    let mut cfg = XrdmaConfig::default();
    cfg.msg_mode = xrdma_core::MsgMode::ReqRsp;
    cfg.trace_sample_mask = 0;
    let net = net(FabricConfig::pair(), 2);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    server.clock_skew_ns.set(50_000); // badly skewed server
    let (c, s) = connect(&net, &client, &server, 7);
    s.set_on_request(|ch, _m, tok| {
        ch.respond_size(tok, 64).ok();
    });

    // First, sync clocks through the service.
    ClockSync::serve(&s);
    let cs = ClockSync::new();
    cs.probe(&c, 8);
    net.world.run_for(Dur::millis(20));
    let offset = cs.offset_ns().unwrap();

    // Re-arm the echo handler (serve() replaced it) and trace real traffic.
    s.set_on_request(|ch, _m, tok| {
        ch.respond_size(tok, 64).ok();
    });
    let tracer = Tracer::new(offset);
    client.set_instrument(tracer.clone());
    let done = Rc::new(Cell::new(0));
    for _ in 0..50 {
        let d = done.clone();
        c.send_request_size(256, move |_, _| d.set(d.get() + 1))
            .unwrap();
    }
    net.world.run_for(Dur::millis(50));
    assert_eq!(done.get(), 50);
    assert_eq!(tracer.record_count(), 50);
    let oneway = tracer.mean_oneway_ns();
    let rtt = tracer.mean_rtt_ns();
    assert!(oneway > 1000.0 && oneway < rtt, "oneway {oneway} rtt {rtt}");
    assert!(
        tracer.network_dominated(),
        "clean network: wire time dominates"
    );
}

#[test]
fn poll_gap_watchdog_finds_slow_application() {
    // The §VII-D Pangu case study: an application handler grabs a slow
    // lock; the poll-gap watchdog must spot it.
    let mut cfg = XrdmaConfig::default();
    cfg.polling_warn_cycle = Dur::micros(500);
    cfg.slow_threshold = Dur::micros(300);
    let net = net(FabricConfig::pair(), 3);
    let client = ctx(&net, 0, cfg.clone());
    let server = ctx(&net, 1, cfg);
    let (c, s) = connect(&net, &client, &server, 7);
    let tracer = Tracer::new(0);
    server.set_instrument(tracer.clone());
    // Slow handler: models the allocator-lock stall.
    let sv = server.clone();
    s.set_on_request(move |ch, _m, tok| {
        sv.thread().charge(Dur::millis(1)); // 1 ms stall per request
        ch.respond_size(tok, 16).ok();
    });
    for _ in 0..20 {
        c.send_request_size(64, |_, _| {}).unwrap();
    }
    net.world.run_for(Dur::millis(100));
    assert!(
        !tracer.slow_ops.borrow().is_empty(),
        "slow-op log caught the handler"
    );
    assert!(
        !tracer.poll_gaps.borrow().is_empty(),
        "poll gaps observed while the thread was stalled"
    );
    assert!(server.stats().poll_gap_warnings > 0);
}

#[test]
fn slow_op_watchdog_threshold_is_strictly_greater() {
    // Edge semantics of the §VI-A watchdog: a handler costing *exactly*
    // the threshold is fine; one nanosecond more is a slow op. Driven
    // through a live server (not just the predicate) so the measured
    // handler cost really is what the charge says.
    let run = |charge: Dur| -> usize {
        let mut cfg = XrdmaConfig::default();
        cfg.slow_threshold = Dur::micros(300);
        let net = net(FabricConfig::pair(), 12);
        let client = ctx(&net, 0, cfg.clone());
        let server = ctx(&net, 1, cfg);
        let (c, s) = connect(&net, &client, &server, 7);
        let tracer = Tracer::new(0);
        server.set_instrument(tracer.clone());
        let sv = server.clone();
        // Oneway: the handler's only cost is the explicit charge (a
        // respond would add its own send-path cycles on top).
        s.set_on_request(move |_ch, _m, _tok| sv.thread().charge(charge));
        for _ in 0..10 {
            c.send_oneway_size(64).unwrap();
        }
        net.world.run_for(Dur::millis(50));
        let n = tracer.slow_ops.borrow().len();
        n
    };
    assert_eq!(
        run(Dur::micros(300)),
        0,
        "cost exactly at the threshold is not slow"
    );
    assert_eq!(
        run(Dur::micros(300) + Dur::nanos(1)),
        10,
        "one nanosecond over the threshold is"
    );
}

#[test]
fn xrping_matrix_spots_the_dead_machine() {
    let net = net(FabricConfig::rack(4), 4);
    let ctxs: Vec<_> = (0..4)
        .map(|i| ctx(&net, i, XrdmaConfig::default()))
        .collect();
    // Machine 2 is dead.
    ctxs[2].rnic().crash();
    let ping = XrPing::new(net.world.clone(), ctxs.clone(), 99);
    ping.probe_all();
    net.world.run_for(Dur::secs(3));
    let m = ping.matrix();
    use xrdma_analysis::xrping::PingCell;
    // Live pairs respond with microsecond RTTs.
    assert!(matches!(m[0][1], PingCell::Ok(d) if d < Dur::millis(1)));
    assert!(matches!(m[1][3], PingCell::Ok(_)));
    // Everything touching machine 2 is unreachable.
    assert_eq!(m[0][2], PingCell::Unreachable);
    assert_eq!(m[1][2], PingCell::Unreachable);
    assert_eq!(m[3][2], PingCell::Unreachable);
    // A dead machine cannot probe at all.
    assert_eq!(m[2][0], PingCell::Unreachable);
    assert_eq!(ping.unreachable_pairs(), 6);
    let rendered = ping.render();
    assert!(rendered.contains("----"));
}

#[test]
fn xrperf_closed_loop_reports_throughput() {
    let net = net(FabricConfig::pair(), 5);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect(&net, &client, &server, 7);
    s.set_on_request(|ch, _m, tok| {
        ch.respond_size(tok, 32).ok();
    });
    let perf = XrPerf::new(
        net.world.clone(),
        c,
        FlowModel::ClosedLoop {
            size: 4096,
            depth: 8,
        },
        net.rng.fork("perf"),
    );
    perf.run_for(Dur::millis(50));
    net.world.run_for(Dur::millis(60));
    let s = perf.summary();
    assert!(s.completed > 100, "completed {}", s.completed);
    assert!(s.mean_latency_us > 1.0 && s.mean_latency_us < 200.0);
    assert!(s.throughput_gbps > 0.1, "tput {}", s.throughput_gbps);
    assert!(s.p99_us >= s.p50_us);
}

#[test]
fn xrperf_elephant_mice_mix() {
    let net = net(FabricConfig::pair(), 6);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect(&net, &client, &server, 7);
    s.set_on_request(|ch, _m, tok| {
        ch.respond_size(tok, 16).ok();
    });
    let perf = XrPerf::new(
        net.world.clone(),
        c.clone(),
        FlowModel::ElephantMice {
            mice_size: 256,
            elephant_size: 1024 * 1024,
            elephant_fraction: 0.05,
            interval: Dur::micros(50),
        },
        net.rng.fork("perf"),
    );
    perf.run_for(Dur::millis(100));
    net.world.run_for(Dur::millis(200));
    let sum = perf.summary();
    assert!(sum.completed > 500, "completed {}", sum.completed);
    // Elephants ran: at least one large transfer went through.
    assert!(c.stats().large_msgs > 0);
    assert!(c.stats().small_msgs > 0);
}

#[test]
fn filter_injected_drops_are_recovered_by_rc() {
    // Table II: "bugs hard to reproduce → filter". Drop 20% of inbound
    // packets at the server; go-back-N must still deliver everything.
    let net = net(FabricConfig::pair(), 7);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect(&net, &client, &server, 7);
    let filter = Filter::install(server.rnic(), net.rng.fork("filter"));
    filter.drop_rate(Some(NodeId(0)), 0.2);
    let got = Rc::new(Cell::new(0u32));
    let g = got.clone();
    s.set_on_request(move |_, _, _| g.set(g.get() + 1));
    for _ in 0..200 {
        c.send_oneway_size(512).unwrap();
    }
    net.world.run_for(Dur::secs(5));
    assert_eq!(got.get(), 200, "reliability recovered every drop");
    assert!(filter.dropped() > 10, "filter actually dropped");
    assert!(
        client.rnic().stats().retransmissions > 0,
        "go-back-N did the work"
    );
    // Disable online: traffic flows cleanly again.
    filter.set_enabled(false);
    let before = filter.dropped();
    for _ in 0..50 {
        c.send_oneway_size(512).unwrap();
    }
    net.world.run_for(Dur::millis(100));
    assert_eq!(filter.dropped(), before);
    assert_eq!(got.get(), 250);
}

#[test]
fn filter_delay_slows_but_delivers() {
    let net = net(FabricConfig::pair(), 8);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect(&net, &client, &server, 7);
    let filter = Filter::install(server.rnic(), net.rng.fork("filter"));
    filter.slow_rate(None, 1.0, Dur::millis(1));
    let done = Rc::new(Cell::new(0u64));
    let d = done.clone();
    s.set_on_request(move |ch, _m, tok| {
        ch.respond_size(tok, 8).ok();
    });
    let t0 = net.world.now();
    let w = net.world.clone();
    let d2 = d.clone();
    c.send_request_size(64, move |_, _| d2.set(w.now().since(t0).as_nanos()))
        .unwrap();
    net.world.run_for(Dur::millis(50));
    assert!(
        done.get() > 1_000_000,
        "rtt {}ns includes injected delay",
        done.get()
    );
    assert!(filter.delayed() >= 1);
}

#[test]
fn filters_share_the_injector_and_refuse_a_replaced_one() {
    let net = net(FabricConfig::pair(), 10);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let owner = Filter::install(server.rnic(), net.rng.fork("filter"));
    let second = Filter::install(client.rnic(), net.rng.fork("unused"));
    second.drop_rate(None, 0.5);
    owner.set_enabled(false);
    let _other = xrdma_faults::FaultInjector::install(
        &net.world,
        xrdma_faults::FaultPlan::new(),
        net.rng.fork("faults"),
    );
    let toggle =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| second.set_enabled(false)));
    assert!(toggle.is_err(), "a replaced injector fails loudly");
}

#[test]
fn mock_switches_to_tcp_and_back() {
    let net = net(FabricConfig::pair(), 9);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect(&net, &client, &server, 7);

    // TCP path between the same machines.
    let tcp_a = TcpStack::new(&net.fabric, client.rnic());
    let tcp_b = TcpStack::new(&net.fabric, server.rnic());
    let got: Rc<RefCell<Vec<(u64, &'static str)>>> = Rc::new(RefCell::new(Vec::new()));

    // Server-side unified sink across both transports.
    let server_mock = MockTransport::new();
    server_mock.attach_rdma(s.clone());
    let g = got.clone();
    let sm2 = server_mock.clone();
    tcp_b.listen(40, move |conn| {
        sm2.attach_tcp(conn);
    });
    let g2 = g.clone();
    server_mock.set_on_msg(move |len, _| g2.borrow_mut().push((len, "any")));

    let client_mock = MockTransport::new();
    client_mock.attach_rdma(c.clone());
    let cm2 = client_mock.clone();
    tcp_a.connect(NodeId(1), 40, move |conn| {
        cm2.attach_tcp(conn);
    });
    net.world.run_for(Dur::millis(5));

    // Phase 1: RDMA.
    assert!(client_mock.send(Bytes::from_static(b"via-rdma")));
    net.world.run_for(Dur::millis(5));
    assert_eq!(got.borrow().len(), 1);
    assert_eq!(client_mock.sent_rdma.get(), 1);

    // Anomaly: switch to TCP.
    client_mock.switch_to_tcp();
    assert!(client_mock.send(Bytes::from_static(b"via-tcp!")));
    net.world.run_for(Dur::millis(5));
    assert_eq!(got.borrow().len(), 2);
    assert_eq!(client_mock.sent_tcp.get(), 1);

    // Recovered: back to RDMA.
    client_mock.switch_to_rdma();
    assert!(client_mock.send_size(128));
    net.world.run_for(Dur::millis(5));
    assert_eq!(got.borrow().len(), 3);
    assert_eq!(client_mock.sent_rdma.get(), 2);
}

#[test]
fn monitor_collects_series_and_xrstat_renders() {
    let net = net(FabricConfig::pair(), 10);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect(&net, &client, &server, 7);
    s.set_on_request(|ch, _m, tok| {
        ch.respond_size(tok, 1024).ok();
    });
    let monitor = Monitor::new(net.world.clone(), Dur::millis(10));
    monitor.track(&client);
    monitor.track(&server);
    for _ in 0..200 {
        c.send_request_size(2048, |_, _| {}).unwrap();
    }
    net.world.run_for(Dur::millis(100));
    let samples = monitor.samples_for(0);
    assert!(samples.len() >= 8, "~10 samples over 100ms");
    assert!(samples.last().unwrap().bytes_tx > 200 * 2048 / 2);
    let tx = monitor.tx_rows(0);
    assert!(tx.iter().map(|&(_, v)| v).sum::<f64>() > 0.0);
    let json = monitor.to_json();
    assert!(json.contains("\"bytes_tx\""));

    // XR-Stat table.
    let rows = xrstat::connection_table(&client);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].peer_node, 1);
    assert_eq!(rows[0].msgs_sent, 200);
    let rendered = xrstat::render_table(&rows);
    assert!(rendered.contains("n1"));
    let health = xrstat::health(&client);
    assert_eq!(health.node, 0);
    assert!(health.registered_mb > 0.0);
    let fh = xrstat::fabric_health(&net.fabric);
    assert!(fh.contains("delivered="));
}

#[test]
fn xradm_distributes_online_flags() {
    let net = net(FabricConfig::rack(3), 11);
    let fleet: Vec<_> = (0..3)
        .map(|i| ctx(&net, i, XrdmaConfig::default()))
        .collect();
    let adm = XrAdm::new(fleet.clone());
    assert_eq!(adm.fleet_size(), 3);
    assert!(adm.set_flag_all_ok("keepalive_intv_ms", "77"));
    for ctxi in &fleet {
        assert_eq!(ctxi.config().keepalive_intv, Dur::millis(77));
    }
    // Offline keys fail everywhere, consistently.
    let results = adm.set_flag("use_srq", "true");
    assert!(results.iter().all(|r| r.result.is_err()));
}

#[test]
fn xrserver_answers_echo_sink_generate() {
    use xrdma_analysis::XrServer;
    let net = net(FabricConfig::pair(), 20);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server_ctx = ctx(&net, 1, XrdmaConfig::default());
    let server = XrServer::start(&server_ctx, 50);
    let cch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let c2 = cch.clone();
    client.connect(NodeId(1), 50, move |r| *c2.borrow_mut() = Some(r.unwrap()));
    net.world.run_for(Dur::millis(20));
    let ch = cch.borrow().clone().unwrap();

    let sizes: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    for body in [
        &b"Echo-payload"[..],
        &b"S-upload"[..],
        &b"G\x04download"[..],
    ] {
        let s2 = sizes.clone();
        ch.send_request(Bytes::copy_from_slice(body), move |_, resp| {
            s2.borrow_mut().push(resp.len);
        })
        .unwrap();
    }
    net.world.run_for(Dur::millis(10));
    assert_eq!(
        *sizes.borrow(),
        vec![12, 16, 4096],
        "echo / sink / generate"
    );
    assert_eq!(server.stats.requests.get(), 3);
    assert!(server.report().contains("3 requests"));
}

#[test]
fn mock_auto_switch_on_dead_rdma_path() {
    use xrdma_analysis::mock::Transport;
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(10);
    cfg.timer_period = Dur::millis(2);
    let world = World::new();
    let rng = SimRng::new(21);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mut rnic_cfg = RnicConfig::default();
    rnic_cfg.retx_timeout = Dur::millis(2);
    rnic_cfg.retry_count = 2;
    let a = XrdmaContext::on_new_node(&fabric, &cm, NodeId(0), rnic_cfg.clone(), cfg.clone(), &rng);
    let b = XrdmaContext::on_new_node(&fabric, &cm, NodeId(1), rnic_cfg, cfg, &rng);
    let netr = Net {
        world: world.clone(),
        fabric: fabric.clone(),
        cm,
        rng: rng.fork("n"),
    };
    let (c, s) = connect(&netr, &a, &b, 7);
    let _ = s;

    let got = Rc::new(Cell::new(0u64));
    let mock = xrdma_analysis::MockTransport::new();
    mock.attach_rdma(c.clone());
    // TCP fallback path.
    let ta = xrdma_rnic::tcp::TcpStack::new(&fabric, a.rnic());
    let tb = xrdma_rnic::tcp::TcpStack::new(&fabric, b.rnic());
    let g = got.clone();
    let mock_b = xrdma_analysis::MockTransport::new();
    let mb = mock_b.clone();
    tb.listen(40, move |conn| mb.attach_tcp(conn));
    mock_b.set_on_msg(move |len, _| g.set(g.get() + len));
    let m2 = mock.clone();
    ta.connect(NodeId(1), 40, move |conn| m2.attach_tcp(conn));
    world.run_for(Dur::millis(5));

    mock.auto_switch(&world, Dur::millis(5), 1_000_000);
    assert_eq!(mock.mode(), Transport::Rdma);
    // Kill the RDMA path's peer NIC... but keep TCP alive: crash would
    // kill both (same NIC). Instead, close the RDMA channel — "protocol
    // stack collapse" from the transport's perspective.
    c.close();
    world.run_for(Dur::millis(30));
    assert_eq!(mock.mode(), Transport::Tcp, "watchdog fell back to TCP");
    assert!(mock.send(Bytes::from_static(b"still-flowing")));
    world.run_for(Dur::millis(10));
    assert_eq!(got.get(), 13, "traffic continued over TCP");
}
