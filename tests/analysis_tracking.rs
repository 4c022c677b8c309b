//! Table II end-to-end: every bug class the paper lists, injected into a
//! live cluster, must be caught by the tracking method the table assigns.
//!
//! | bug type              | tracking method          | test                       |
//! |-----------------------|--------------------------|----------------------------|
//! | heavy incast          | tracing, XR-Stat         | `incast_shows_in_xrstat`   |
//! | broken network        | keepAlive, XR-Ping       | `broken_link_via_ping`     |
//! | jitter / long tail    | tracing, XR-Perf         | `jitter_via_perf_tail`     |
//! | bugs hard to reproduce| filter                   | `filter_reproduces_flake`  |
//! | memory leak / crash   | isolated memory cache    | `oob_access_caught`        |

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_analysis::xrperf::{FlowModel, XrPerf};
use xrdma_analysis::{xrstat, Filter, XrPing};
use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext};
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

fn connect(
    net: &Net,
    a: &Rc<XrdmaContext>,
    b: &Rc<XrdmaContext>,
    svc: u16,
) -> (Rc<XrdmaChannel>, Rc<XrdmaChannel>) {
    let sch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let s2 = sch.clone();
    b.listen(svc, move |ch| *s2.borrow_mut() = Some(ch));
    let cch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let c2 = cch.clone();
    a.connect(NodeId(b.node().0), svc, move |r| {
        *c2.borrow_mut() = Some(r.unwrap())
    });
    net.world.run_for(Dur::millis(20));
    let c = cch.borrow().clone().unwrap();
    let s = sch.borrow().clone().unwrap();
    (c, s)
}

/// Heavy incast shows up in XR-Stat's per-connection and health rows:
/// rate cuts (DCQCN), CNPs and window stalls on the victims.
#[test]
fn incast_shows_in_xrstat() {
    let net = net(FabricConfig::rack(9), 1);
    let sink = ctx(&net, 0, XrdmaConfig::default());
    sink.listen(9, |ch| {
        ch.set_on_request(|c, _m, t| {
            c.respond_size(t, 32).ok();
        });
    });
    let mut senders = Vec::new();
    for i in 1..9u32 {
        let s = ctx(&net, i, XrdmaConfig::default());
        let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        s.connect(NodeId(0), 9, move |r| *s2.borrow_mut() = Some(r.unwrap()));
        senders.push((s, slot));
    }
    net.world.run_for(Dur::millis(50));
    fn pump(ch: &Rc<XrdmaChannel>) {
        let c2 = ch.clone();
        ch.send_request_size(256 * 1024, move |_, _| pump(&c2)).ok();
    }
    for (_, slot) in &senders {
        let ch = slot.borrow().clone().unwrap();
        for _ in 0..4 {
            pump(&ch);
        }
    }
    net.world.run_for(Dur::millis(100));
    // XR-Stat on a sender: the connection row shows the incast symptoms.
    let (sctx, _) = &senders[0];
    let rows = xrstat::connection_table(sctx);
    assert_eq!(rows.len(), 1);
    let health = xrstat::health(sctx);
    let rate_cut = rows[0].rate_gbps < 24.0;
    let congestion_seen = health.cnps_received > 0 || rows[0].window_stalls > 0;
    assert!(
        rate_cut || congestion_seen,
        "incast must be visible: rate={} cnps={} stalls={}",
        rows[0].rate_gbps,
        health.cnps_received,
        rows[0].window_stalls
    );
    // And fabric-level ECN marks happened.
    assert!(net.fabric.stats().snapshot().ecn_marked > 0);
}

/// A broken machine appears as a row/column of `----` in XR-Ping's matrix
/// and as keepalive teardown on established channels.
#[test]
fn broken_link_via_ping_and_keepalive() {
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(10);
    cfg.timer_period = Dur::millis(2);
    let mut rnic_cfg = RnicConfig::default();
    rnic_cfg.retx_timeout = Dur::millis(2);
    rnic_cfg.retry_count = 2;
    let world = World::new();
    let rng = SimRng::new(2);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(3), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let ctxs: Vec<_> = (0..3u32)
        .map(|i| {
            XrdmaContext::on_new_node(&fabric, &cm, NodeId(i), rnic_cfg.clone(), cfg.clone(), &rng)
        })
        .collect();
    // Established channel 0→2 to witness keepalive.
    let net_ref = Net {
        world: world.clone(),
        fabric: fabric.clone(),
        cm: cm.clone(),
        rng: rng.fork("x"),
    };
    let (c02, _s) = connect(&net_ref, &ctxs[0], &ctxs[2], 7);
    // Break machine 2 and probe the mesh.
    ctxs[2].rnic().crash();
    let ping = XrPing::new(world.clone(), ctxs.clone(), 99);
    ping.probe_all();
    world.run_for(Dur::secs(3));
    assert_eq!(ping.unreachable_pairs(), 4, "row+column of the dead node");
    assert!(c02.is_closed(), "keepalive reaped the established channel");
    // At least the established channel; the CM may also have built a
    // half-open server-side channel for the dead node's probe attempt,
    // which keepalive reaps too.
    assert!(ctxs[0].stats().keepalive_failures >= 1);
}

/// Induced jitter (a slow responder phase) shows up in XR-Perf's p99 tail.
#[test]
fn jitter_via_perf_tail() {
    let net = net(FabricConfig::pair(), 3);
    let client = ctx(&net, 0, XrdmaConfig::default());
    let server = ctx(&net, 1, XrdmaConfig::default());
    let (c, s) = connect(&net, &client, &server, 7);
    // Every ~20th request stalls 1 ms — a jittery service.
    let count = Rc::new(Cell::new(0u32));
    let srv = server.clone();
    s.set_on_request(move |ch, _m, tok| {
        count.set(count.get() + 1);
        if count.get().is_multiple_of(20) {
            srv.thread().charge(Dur::millis(1));
        }
        ch.respond_size(tok, 32).ok();
    });
    let perf = XrPerf::new(
        net.world.clone(),
        c,
        FlowModel::ClosedLoop {
            size: 512,
            depth: 4,
        },
        net.rng.fork("perf"),
    );
    perf.run_for(Dur::millis(200));
    net.world.run_for(Dur::millis(250));
    let sum = perf.summary();
    assert!(sum.completed > 200);
    assert!(
        sum.p99_us > sum.p50_us * 5.0,
        "jitter tail visible: p50={:.1}µs p99={:.1}µs",
        sum.p50_us,
        sum.p99_us
    );
}

/// A flaky, hard-to-reproduce loss pattern becomes deterministic with the
/// Filter: same seed, same drops, same recovery.
#[test]
fn filter_reproduces_flake_deterministically() {
    let run = |seed: u64| {
        let net = net(FabricConfig::pair(), seed);
        let client = ctx(&net, 0, XrdmaConfig::default());
        let server = ctx(&net, 1, XrdmaConfig::default());
        let (c, s) = connect(&net, &client, &server, 7);
        let filter = Filter::install(server.rnic(), net.rng.fork("filter"));
        filter.drop_rate(None, 0.15);
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        s.set_on_request(move |_, _, _| g.set(g.get() + 1));
        for _ in 0..100 {
            c.send_oneway_size(300).unwrap();
        }
        net.world.run_for(Dur::secs(3));
        (
            got.get(),
            filter.dropped(),
            client.rnic().stats().retransmissions,
        )
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a, b, "bit-identical reproduction of the flake");
    assert_eq!(a.0, 100, "and full recovery");
    assert!(a.1 > 5, "the flake actually flaked");
}

/// §VI-C memory-cache isolation: an out-of-bounds access into RDMA memory
/// is caught by the MR bounds check instead of corrupting a neighbour —
/// the isolated (high, guarded) address range guarantees the overrun
/// cannot land in another allocation.
#[test]
fn oob_access_caught_by_isolation() {
    let net = net(FabricConfig::pair(), 5);
    let a = ctx(&net, 0, XrdmaConfig::default());
    // Application registers two buffers back to back.
    let buf1 = a.reg_mem(4096);
    let buf2 = a.reg_mem(4096);
    let mr1 = a.rnic().mem().by_lkey(buf1.lkey).unwrap();
    // Overrun: writing past buf1 must fault, not hit buf2.
    let err = mr1.write(buf1.addr + 4090, b"0123456789");
    assert!(err.is_err(), "bounds check fired");
    // And buf2 is untouched (guard gap between allocations).
    let mr2 = a.rnic().mem().by_lkey(buf2.lkey).unwrap();
    assert_eq!(mr2.read(buf2.addr, 10).unwrap(), vec![0; 10]);
    // The memcache arenas sit in the high range, far from these buffers.
    let mc_buf = a.memcache().alloc(64).unwrap();
    assert!(
        mc_buf.addr > buf1.addr + (1 << 40),
        "isolated range (§VI-C)"
    );
    a.memcache().release(&mc_buf);
}
