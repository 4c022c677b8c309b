//! The orders the middleware's per-connection tables promise. Channels,
//! RPC waiters and logical channels live in tables indexed by the ids the
//! stack hands out (qpn, rpc_id, lcid); these tests pin every order that
//! reaches an application or the wire, so no table can fall back to
//! insertion or hash-bucket order unnoticed (DESIGN.md §3.18).

use std::cell::RefCell;
use std::rc::Rc;

use xrdma_core::channel::CloseReason;
use xrdma_core::{ChannelMux, LogicalChannel, XrdmaChannel, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};

struct Pair {
    world: Rc<World>,
    a: Rc<XrdmaContext>,
    b: Rc<XrdmaContext>,
}

/// Two nodes, fast keepalive and RC retry, node 1 accepting on service 7.
fn pair(cfg: XrdmaConfig) -> Pair {
    let world = World::new();
    let rng = SimRng::new(3);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mut rnic_cfg = RnicConfig::default();
    rnic_cfg.retx_timeout = Dur::millis(2);
    rnic_cfg.retry_count = 2;
    let a = XrdmaContext::on_new_node(&fabric, &cm, NodeId(0), rnic_cfg.clone(), cfg.clone(), &rng);
    let b = XrdmaContext::on_new_node(&fabric, &cm, NodeId(1), rnic_cfg, cfg, &rng);
    b.listen(7, |_| {});
    Pair { world, a, b }
}

fn keepalive_cfg() -> XrdmaConfig {
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(10);
    cfg.timer_period = Dur::millis(2);
    cfg
}

/// Open one channel from `a` to `b` and run until it is up.
fn connect(p: &Pair) -> Rc<XrdmaChannel> {
    let got: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::default();
    let g = got.clone();
    p.a.connect(NodeId(1), 7, move |r| *g.borrow_mut() = Some(r.unwrap()));
    p.world.run_for(Dur::millis(10));
    let ch = got.borrow_mut().take().expect("connected");
    ch
}

fn qpns(chs: &[Rc<XrdmaChannel>]) -> Vec<u32> {
    chs.iter().map(|ch| ch.qp.qpn.0).collect()
}

/// A dying channel fails its outstanding RPCs in ascending rpc_id order,
/// whatever order the waiter table keeps them in.
#[test]
fn dying_channel_fails_rpcs_in_rpc_id_order() {
    let p = pair(XrdmaConfig::default());
    let ch = connect(&p);
    // The server never answers: every RPC stays outstanding.
    let failed = Rc::new(RefCell::new(Vec::new()));
    let mut ids = Vec::new();
    for i in 0..48u32 {
        let f = failed.clone();
        let id = ch
            .send_request_size(64, move |_, msg| {
                assert!(msg.is_error());
                f.borrow_mut().push(i);
            })
            .unwrap();
        ids.push(id);
    }
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids count up: {ids:?}");
    p.world.run_for(Dur::millis(1));
    assert!(failed.borrow().is_empty());
    ch.close();
    p.world.run_for(Dur::millis(1));
    assert_eq!(*failed.borrow(), (0..48).collect::<Vec<_>>());
}

/// A mux that opened `(peer, lcid)` and receives a frame its peer sent
/// on the same `(peer, lcid)` resolves both to one logical channel —
/// whichever comes first — and counts it open once.
#[test]
fn mux_resolves_opened_and_received_lcid_to_one_logical() {
    for frame_first in [false, true] {
        let mut cfg = XrdmaConfig::default();
        cfg.use_srq = true;
        let p = pair(cfg);
        let ma = ChannelMux::new(&p.a, 9);
        let mb = ChannelMux::new(&p.b, 9);
        let seen: Rc<RefCell<Vec<Rc<LogicalChannel>>>> = Rc::default();
        let s = seen.clone();
        ma.serve(move |lc, _msg, _reply| s.borrow_mut().push(lc.clone()));
        mb.serve(|_, _, _| {});
        let mut opened = None;
        if !frame_first {
            opened = Some(ma.open(NodeId(1)));
        }
        // Both muxes number from the same epoch: b's first lcid is a's.
        let from_b = mb.open(NodeId(0));
        from_b.send_oneway_size(64).unwrap();
        p.world.run_for(Dur::millis(20));
        let opened = opened.unwrap_or_else(|| ma.open(NodeId(1)));
        assert_eq!(opened.lcid, from_b.lcid);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1, "frame delivered (frame_first {frame_first})");
        assert!(Rc::ptr_eq(&seen[0], &opened), "frame_first {frame_first}");
        assert_eq!(opened.received(), 1);
        assert_eq!(ma.stats().logical_open, 1, "frame_first {frame_first}");
        // A different peer's lcid of the same number stays its own.
        let other = ma.logical_at(NodeId(5), opened.lcid);
        assert!(!Rc::ptr_eq(&other, &opened));
        assert_eq!(ma.stats().logical_open, 2);
    }
}

/// `channels()` and the keepalive tick walk channels in qpn order, not in
/// the order they were installed: recycled QPs bring low qpns back after
/// higher ones, and the probes the tick posts fail — closing their
/// channels — in the order it walked them.
#[test]
fn channels_and_keepalive_tick_walk_in_qpn_order() {
    let p = pair(keepalive_cfg());
    let mut chs: Vec<_> = (0..4).map(|_| connect(&p)).collect();
    let first = qpns(&chs);
    assert!(first.windows(2).all(|w| w[0] < w[1]), "fresh qpns count up");
    // Recycle the two lowest qpns into channels installed last.
    for ch in chs.drain(..2) {
        ch.close();
    }
    p.world.run_for(Dur::millis(1));
    chs.push(connect(&p));
    chs.push(connect(&p));
    let installed = qpns(&chs);
    assert_eq!(installed, [first[2], first[3], first[0], first[1]]);
    let mut by_qpn = installed.clone();
    by_qpn.sort_unstable();
    assert_eq!(qpns(&p.a.channels()), by_qpn);

    // Quiesce every channel at one instant, newest first, so the tick is
    // the only thing that orders the probes.
    for ch in chs.iter().rev() {
        ch.send_oneway_size(64).unwrap();
    }
    let closes = Rc::new(RefCell::new(Vec::new()));
    for ch in &chs {
        let c = closes.clone();
        let qpn = ch.qp.qpn.0;
        ch.set_on_close(move |reason| {
            assert_eq!(reason, CloseReason::PeerDead);
            c.borrow_mut().push(qpn);
        });
    }
    p.world.run_for(Dur::millis(5));
    let probes = || -> Vec<u64> { chs.iter().map(|ch| ch.stats().keepalive_probes).collect() };
    let before = probes();
    p.b.rnic().crash();
    p.world.run_for(Dur::millis(100));
    let after: Vec<u64> = probes().iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(after, [1, 1, 1, 1], "one probe each found the peer dead");
    assert_eq!(*closes.borrow(), by_qpn);
}
