//! §V-A keepalive: dead peers are detected by zero-byte write probes and
//! their resources released immediately (DESIGN.md per-experiment index).

use std::cell::RefCell;
use std::rc::Rc;

use xrdma_core::channel::CloseReason;
use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};

struct Rig {
    world: Rc<World>,
    a: Rc<XrdmaContext>,
    b: Rc<XrdmaContext>,
    ca: Rc<XrdmaChannel>,
    #[allow(dead_code)]
    cb: Rc<XrdmaChannel>,
}

fn rig(seed: u64) -> Rig {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(10);
    cfg.timer_period = Dur::millis(2);
    let mut rnic_cfg = RnicConfig::default();
    rnic_cfg.retx_timeout = Dur::millis(2);
    rnic_cfg.retry_count = 2;
    let a = XrdmaContext::on_new_node(&fabric, &cm, NodeId(0), rnic_cfg.clone(), cfg.clone(), &rng);
    let b = XrdmaContext::on_new_node(&fabric, &cm, NodeId(1), rnic_cfg, cfg, &rng);
    let sch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let s2 = sch.clone();
    b.listen(7, move |ch| *s2.borrow_mut() = Some(ch));
    let cch: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
    let c2 = cch.clone();
    a.connect(NodeId(1), 7, move |r| *c2.borrow_mut() = Some(r.unwrap()));
    world.run_for(Dur::millis(20));
    let ca = cch.borrow().clone().unwrap();
    let cb = sch.borrow().clone().unwrap();
    Rig {
        world,
        a,
        b,
        ca,
        cb,
    }
}

#[test]
fn probes_flow_on_idle_channels_without_waking_the_app() {
    let r = rig(1);
    let app_msgs = Rc::new(std::cell::Cell::new(0u32));
    let am = app_msgs.clone();
    r.cb.set_on_request(move |_, _, _| am.set(am.get() + 1));
    r.world.run_for(Dur::millis(200));
    assert!(!r.ca.is_closed());
    assert!(
        r.ca.stats().keepalive_probes >= 10,
        "probes: {}",
        r.ca.stats().keepalive_probes
    );
    // The kernel-bypass property: probes are zero-byte writes — the peer
    // application never sees them.
    assert_eq!(app_msgs.get(), 0);
    assert_eq!(r.cb.stats().msgs_received, 0);
}

#[test]
fn crash_detected_within_a_few_intervals_resources_freed() {
    let r = rig(2);
    let closed_with = Rc::new(RefCell::new(None));
    let cw = closed_with.clone();
    r.ca.set_on_close(move |reason| *cw.borrow_mut() = Some(reason));

    let qps_before = r.a.rnic().qp_count();
    let t0 = r.world.now();
    let closed_at = Rc::new(std::cell::Cell::new(r.world.now()));
    let ca2 = closed_at.clone();
    let w2 = r.world.clone();
    let prev = closed_with.clone();
    r.ca.set_on_close(move |reason| {
        *prev.borrow_mut() = Some(reason);
        ca2.set(w2.now());
    });
    r.b.rnic().crash();
    r.world.run_for(Dur::millis(500));

    assert!(r.ca.is_closed());
    assert_eq!(*closed_with.borrow(), Some(CloseReason::PeerDead));
    assert_eq!(r.a.channel_count(), 0, "channel resources released");
    assert_eq!(r.a.stats().keepalive_failures, 1);
    // The errored QP was destroyed, not recycled.
    assert!(r.a.rnic().qp_count() < qps_before);
    assert_eq!(r.a.qpcache().len(), 0);
    // Detection latency: a couple of keepalive intervals + retries, not
    // the "held until future communication" leak of native RDMA (§III).
    let detect = closed_at.get().since(t0);
    assert!(
        detect < Dur::millis(100),
        "detected in {detect} (interval 10 ms)"
    );
}

#[test]
fn data_operation_detects_dead_peer() {
    // §V-A: death must surface through the data path too, not only the
    // probe timer — an application RPC against a crashed peer gets a
    // typed error reply and the channel closes with `PeerDead`.
    let r = rig(5);
    let reason = Rc::new(RefCell::new(None));
    let r2 = reason.clone();
    r.ca.set_on_close(move |re| *r2.borrow_mut() = Some(re));
    r.b.rnic().crash();
    let errored = Rc::new(std::cell::Cell::new(false));
    let e2 = errored.clone();
    r.ca.send_request_size(4096, move |_, msg| {
        assert!(msg.is_error(), "waiter must see an error, not a response");
        e2.set(true);
    })
    .unwrap();
    r.world.run_for(Dur::millis(200));
    assert!(r.ca.is_closed());
    assert_eq!(*reason.borrow(), Some(CloseReason::PeerDead));
    assert!(errored.get(), "the outstanding RPC must fail, not hang");
    assert_eq!(r.a.stats().keepalive_failures, 1);
    assert_eq!(r.a.channel_count(), 0, "resources released");
}

#[test]
fn traffic_suppresses_probes() {
    let r = rig(3);
    r.cb.set_on_request(|ch, _m, tok| {
        ch.respond_size(tok, 8).ok();
    });
    // Keep the channel busy for 200 ms: RPCs every 2 ms.
    fn chat(ch: &Rc<XrdmaChannel>, world: &Rc<World>, left: u32) {
        if left == 0 {
            return;
        }
        let ch2 = ch.clone();
        let w2 = world.clone();
        ch.send_request_size(64, move |_, _| {
            let ch3 = ch2.clone();
            let w3 = w2.clone();
            w2.schedule_in(Dur::millis(2), move || chat(&ch3, &w3, left - 1));
        })
        .ok();
    }
    chat(&r.ca, &r.world, 100);
    r.world.run_for(Dur::millis(250));
    assert_eq!(r.ca.stats().rpcs_completed, 100);
    // The ~30 ms of idle before/after the chat window legitimately emit a
    // few probes (one per 10 ms interval); the 200 ms of traffic must not.
    assert!(
        r.ca.stats().keepalive_probes <= 6,
        "busy channel needs (almost) no probes: {}",
        r.ca.stats().keepalive_probes
    );
}

#[test]
fn one_dead_peer_does_not_disturb_others() {
    // A context with channels to a dead and a live peer keeps the live one.
    let world = World::new();
    let rng = SimRng::new(4);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(3), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(10);
    cfg.timer_period = Dur::millis(2);
    let mut rnic_cfg = RnicConfig::default();
    rnic_cfg.retx_timeout = Dur::millis(2);
    rnic_cfg.retry_count = 2;
    let hub =
        XrdmaContext::on_new_node(&fabric, &cm, NodeId(0), rnic_cfg.clone(), cfg.clone(), &rng);
    let live =
        XrdmaContext::on_new_node(&fabric, &cm, NodeId(1), rnic_cfg.clone(), cfg.clone(), &rng);
    let doomed = XrdmaContext::on_new_node(&fabric, &cm, NodeId(2), rnic_cfg, cfg, &rng);
    live.listen(7, |ch| {
        ch.set_on_request(|c, _m, t| {
            c.respond_size(t, 8).ok();
        });
    });
    doomed.listen(7, |_| {});
    let chans: Rc<RefCell<Vec<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(Vec::new()));
    for peer in [1u32, 2] {
        let c2 = chans.clone();
        hub.connect(NodeId(peer), 7, move |r| c2.borrow_mut().push(r.unwrap()));
    }
    world.run_for(Dur::millis(30));
    assert_eq!(hub.channel_count(), 2);
    doomed.rnic().crash();
    world.run_for(Dur::millis(300));
    assert_eq!(hub.channel_count(), 1, "only the dead channel was reaped");
    assert_eq!(hub.stats().keepalive_failures, 1);
    // The surviving channel still works.
    let live_ch = chans
        .borrow()
        .iter()
        .find(|c| !c.is_closed())
        .cloned()
        .expect("live channel");
    let ok = Rc::new(std::cell::Cell::new(false));
    let o = ok.clone();
    live_ch
        .send_request_size(64, move |_, _| o.set(true))
        .unwrap();
    world.run_for(Dur::millis(20));
    assert!(ok.get());
}
