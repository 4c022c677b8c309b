//! Connection-multiplexing tests: logical channels over a bounded QP
//! pool, LRU eviction with transparent re-establishment, and the
//! differential contract against the unmuxed path (DESIGN.md §3.16).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;

use xrdma_core::{ChannelMux, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};

struct Net {
    world: Rc<World>,
    fabric: Rc<Fabric>,
    cm: Rc<ConnManager>,
    rng: SimRng,
}

fn net(nodes: u32, seed: u64) -> Net {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(nodes), &rng);
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

fn mux_cfg(pool: usize, lanes: u64) -> XrdmaConfig {
    let mut cfg = XrdmaConfig::default();
    cfg.mux_pool = pool;
    cfg.mux_lanes = lanes;
    cfg.use_srq = true;
    cfg
}

/// FNV-1a over delivered frames: `(lcid, lseq, len, body)` in delivery
/// order — the digest the differential test compares.
#[derive(Clone)]
struct Digest(Rc<Cell<u64>>, Rc<RefCell<Vec<(u64, u64, u64)>>>);

impl Digest {
    fn new() -> Digest {
        Digest(
            Rc::new(Cell::new(0xcbf29ce484222325)),
            Rc::new(RefCell::new(Vec::new())),
        )
    }
    fn eat(&self, lcid: u64, lseq: u64, len: u64, body: &[u8]) {
        let mut h = self.0.get();
        for chunk in [lcid, lseq, len] {
            for b in chunk.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        }
        for &b in body {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        self.0.set(h);
        self.1.borrow_mut().push((lcid, lseq, len));
    }
    fn value(&self) -> u64 {
        self.0.get()
    }
    fn frames(&self) -> Vec<(u64, u64, u64)> {
        self.1.borrow().clone()
    }
}

fn body_for(lcid: u64, i: u64) -> Bytes {
    let mut v = Vec::with_capacity(64);
    for k in 0..64u64 {
        v.push(((lcid.wrapping_mul(31) ^ i.wrapping_mul(7) ^ k) & 0xff) as u8);
    }
    Bytes::from(v)
}

#[test]
fn mux_oneway_and_rpc_roundtrip() {
    let net = net(2, 11);
    let server = ctx(&net, 0, mux_cfg(8, 2));
    let client = ctx(&net, 1, mux_cfg(8, 2));
    let smux = ChannelMux::new(&server, 7);
    let got = Digest::new();
    let g = got.clone();
    smux.serve(move |lc, msg, reply| {
        g.eat(lc.lcid, msg.mux.unwrap().lseq, msg.len, &msg.body());
        if let Some(r) = reply {
            r.reply(Bytes::from_static(b"pong")).unwrap();
        }
    });
    let cmux = ChannelMux::new(&client, 7);
    let lc = cmux.open(NodeId(0));
    let responses = Rc::new(Cell::new(0u32));
    lc.send_oneway(body_for(lc.lcid, 0)).unwrap();
    let r2 = responses.clone();
    lc.send_request(body_for(lc.lcid, 1), move |msg| {
        assert!(!msg.is_error());
        assert_eq!(&msg.body()[..], b"pong");
        r2.set(r2.get() + 1);
    })
    .unwrap();
    net.world.run_for(Dur::millis(50));

    assert_eq!(responses.get(), 1, "rpc answered");
    assert_eq!(got.frames().len(), 2, "both frames delivered");
    assert_eq!(got.frames()[0], (lc.lcid, 0, 64));
    assert_eq!(got.frames()[1], (lc.lcid, 1, 64));
    let st = cmux.stats();
    assert_eq!(st.establishments, 1, "one lazy establishment");
    assert_eq!(st.evictions, 0);
    assert_eq!(st.pool_live, 1);
    assert_eq!(lc.seq_state().0, 2, "tx lseq advanced");
    // Receive resources rode the context SRQ, not per-channel preposts.
    let (in_srq, total) = server.srq_depth().expect("srq enabled");
    assert!(total > 0 && in_srq > 0);
}

#[test]
fn pool_stays_bounded_under_many_logicals() {
    let net = net(5, 12);
    let mut servers = Vec::new();
    for n in 0..4 {
        let s = ctx(&net, n, mux_cfg(4, 1));
        let sm = ChannelMux::new(&s, 7);
        sm.serve(|_, _, reply| {
            if let Some(r) = reply {
                r.reply_size(8).ok();
            }
        });
        servers.push((s, sm));
    }
    // Pool of 2 slots serving logical channels toward 4 peers: every
    // establishment beyond the second evicts the LRU slot first.
    let client = ctx(&net, 4, mux_cfg(2, 1));
    let cmux = ChannelMux::new(&client, 7);
    let done = Rc::new(Cell::new(0u32));
    let mut logicals = Vec::new();
    for peer in 0..4u32 {
        for _ in 0..8 {
            logicals.push(cmux.open(NodeId(peer)));
        }
    }
    // Rounds of traffic cycling through all peers forces steady eviction
    // churn on the 2-slot pool.
    for round in 0..6u64 {
        for lc in &logicals {
            let d = done.clone();
            lc.send_request(body_for(lc.lcid, round), move |msg| {
                assert!(!msg.is_error());
                d.set(d.get() + 1);
            })
            .unwrap();
        }
        net.world.run_for(Dur::millis(120));
    }
    net.world.run_for(Dur::millis(300));

    assert_eq!(done.get(), 6 * 32, "every rpc across evictions answered");
    let st = cmux.stats();
    assert_eq!(st.logical_open, 32);
    assert!(st.pool_peak <= 2, "pool bound held: peak {}", st.pool_peak);
    assert!(st.pool_live <= 2);
    assert!(st.evictions >= 4, "LRU churned: {} evictions", st.evictions);
    assert_eq!(
        st.establishments,
        st.reestablishments + 4,
        "first contact per peer once; everything else a re-establishment"
    );
    assert_eq!(st.dup_drops, 0, "seq state survived every eviction");
    // The context never held more QPs than pool (client side); the QP
    // cache recycled evicted ones.
    assert!(client.stats().channels_open <= 2);
}

/// Satellite 3a: evicting a channel with in-flight WRs — the victim
/// drains (RPC responses land) before the QP is torn down.
#[test]
fn eviction_waits_for_inflight_wrs() {
    let net = net(3, 13);
    for n in 0..2 {
        let s = ctx(&net, n, mux_cfg(8, 1));
        let sm = ChannelMux::new(&s, 7);
        // Server answers with a large-ish response to keep RPCs in flight
        // longer than the eviction decision.
        sm.serve(|_, _, reply| {
            if let Some(r) = reply {
                r.reply_size(32 * 1024).ok();
            }
        });
        std::mem::forget(sm); // keep serving for the whole test
    }
    let client = ctx(&net, 2, mux_cfg(1, 1));
    let cmux = ChannelMux::new(&client, 7);
    let lc0 = cmux.open(NodeId(0));
    let lc1 = cmux.open(NodeId(1));
    let ok = Rc::new(Cell::new(0u32));
    // Pipeline 16 RPCs into peer 0, then immediately force an eviction by
    // touching peer 1 (pool of 1): the slot must drain all 16 responses
    // before closing.
    for i in 0..16u64 {
        let k = ok.clone();
        lc0.send_request(body_for(lc0.lcid, i), move |msg| {
            assert!(!msg.is_error(), "rpc failed by eviction");
            k.set(k.get() + 1);
        })
        .unwrap();
    }
    net.world.run_for(Dur::millis(5)); // slot live, rpcs in flight
    let k = ok.clone();
    lc1.send_request(body_for(lc1.lcid, 0), move |msg| {
        assert!(!msg.is_error());
        k.set(k.get() + 1);
    })
    .unwrap();
    net.world.run_for(Dur::millis(400));

    assert_eq!(ok.get(), 17, "all rpcs on the evicted slot completed");
    let st = cmux.stats();
    assert!(st.evictions >= 1);
    assert_eq!(st.dup_drops, 0);
}

/// Satellite 3b: eviction racing a keepalive probe — a probe is
/// outstanding when the LRU picks the slot; the drain gate waits for the
/// probe ack before teardown, and the logical stream re-establishes.
#[test]
fn eviction_races_keepalive_probe() {
    let mut cfg = mux_cfg(1, 1);
    cfg.keepalive_intv = Dur::millis(5);
    cfg.timer_period = Dur::millis(1);
    let net = net(3, 14);
    for n in 0..2 {
        let s = ctx(&net, n, cfg.clone());
        let sm = ChannelMux::new(&s, 7);
        sm.serve(|_, _, reply| {
            if let Some(r) = reply {
                r.reply_size(8).ok();
            }
        });
        std::mem::forget(sm);
    }
    let client = ctx(&net, 2, cfg);
    let cmux = ChannelMux::new(&client, 7);
    let lc0 = cmux.open(NodeId(0));
    let lc1 = cmux.open(NodeId(1));
    let ok = Rc::new(Cell::new(0u32));
    let k = ok.clone();
    lc0.send_request(body_for(lc0.lcid, 0), move |m| {
        assert!(!m.is_error());
        k.set(k.get() + 1);
    })
    .unwrap();
    net.world.run_for(Dur::millis(30));
    // Slot 0 has been idle > keepalive_intv: probes are flowing. Evict it
    // mid-probe by touching peer 1.
    let k = ok.clone();
    lc1.send_request(body_for(lc1.lcid, 0), move |m| {
        assert!(!m.is_error());
        k.set(k.get() + 1);
    })
    .unwrap();
    net.world.run_for(Dur::millis(30));
    // And come back to peer 0: transparent re-establishment.
    let k = ok.clone();
    lc0.send_request(body_for(lc0.lcid, 1), move |m| {
        assert!(!m.is_error());
        k.set(k.get() + 1);
    })
    .unwrap();
    net.world.run_for(Dur::millis(100));

    assert_eq!(ok.get(), 3);
    let st = cmux.stats();
    assert!(st.evictions >= 2);
    assert!(st.reestablishments >= 1);
    assert_eq!(st.dup_drops, 0);
    assert_eq!(client.stats().keepalive_failures, 0, "probe never misread");
    assert_eq!(lc0.seq_state(), (2, 0), "client-side logical seq continued");
}

/// One SRQ context's slot pool rotates past its first memcache arena: a
/// 2 048-slot pool of 4 160 B slots spans three 4 MiB arenas, and more
/// than twice that many frames cycle every slot at least twice, each one
/// arriving with its own bytes. A slot resolved to the wrong buffer, or a
/// receive WR that lands a frame anywhere but its slot, loses or mangles
/// the frames past the first arena.
#[test]
fn srq_rotation_spans_arenas() {
    const SRQ: usize = 2048;
    const LOGICALS: u64 = 8;
    const PER: u64 = 2 * SRQ as u64 / LOGICALS + 40;
    let net = net(2, 21);
    let mut cfg = mux_cfg(4, 2);
    cfg.srq_size = SRQ;
    let server = ctx(&net, 0, cfg.clone());
    let client = ctx(&net, 1, cfg);
    assert!(
        server.memcache().arena_count() >= 2,
        "the pool spans arenas"
    );
    let smux = ChannelMux::new(&server, 7);
    let got: Rc<RefCell<BTreeMap<u64, Vec<Bytes>>>> = Rc::default();
    let g = got.clone();
    smux.serve(move |lc, msg, _| g.borrow_mut().entry(lc.lcid).or_default().push(msg.body()));
    let cmux = ChannelMux::new(&client, 7);
    let logicals: Vec<_> = (0..LOGICALS).map(|_| cmux.open(NodeId(0))).collect();
    for i in 0..PER {
        for lc in &logicals {
            lc.send_oneway(body_for(lc.lcid, i)).unwrap();
        }
    }
    net.world.run_for(Dur::millis(500));
    let got = got.borrow();
    for lc in &logicals {
        let bodies = &got[&lc.lcid];
        assert_eq!(bodies.len() as u64, PER, "lcid {}: every frame", lc.lcid);
        for (i, body) in bodies.iter().enumerate() {
            assert_eq!(
                body,
                &body_for(lc.lcid, i as u64),
                "lcid {} frame {i}",
                lc.lcid
            );
        }
    }
}

/// Run `n_logical` logical streams of `per` frames each through the mux
/// (pool ≥ streams, one lane per stream ⇒ 1:1 logical→physical mapping)
/// and return the per-logical delivery digest.
fn run_muxed(seed: u64, n_logical: u64, per: u64) -> (u64, Vec<(u64, u64, u64)>) {
    let net = net(2, seed);
    let server = ctx(&net, 0, mux_cfg(n_logical as usize + 2, n_logical));
    let client = ctx(&net, 1, mux_cfg(n_logical as usize + 2, n_logical));
    let smux = ChannelMux::new(&server, 7);
    let digest = Digest::new();
    let d = digest.clone();
    smux.serve(move |lc, msg, _| {
        d.eat(lc.lcid, msg.mux.unwrap().lseq, msg.len, &msg.body());
    });
    let cmux = ChannelMux::new(&client, 7);
    let logicals: Vec<_> = (0..n_logical).map(|_| cmux.open(NodeId(0))).collect();
    for i in 0..per {
        for lc in &logicals {
            lc.send_oneway(body_for(lc.lcid, i)).unwrap();
        }
    }
    net.world.run_for(Dur::millis(500));
    assert_eq!(digest.frames().len() as u64, n_logical * per);
    // Per-logical ordered view: (lcid, lseq, len) sorted by (lcid, lseq)
    let mut frames = digest.frames();
    frames.sort_unstable();
    let h = Digest::new();
    for (a, b, c) in &frames {
        h.eat(*a, *b, *c, &[]);
    }
    (h.value(), frames)
}

/// The same workload over plain (unmuxed) channels, digested in the same
/// per-stream shape: stream i maps to the mux's lcid i+1.
fn run_unmuxed(seed: u64, n_logical: u64, per: u64) -> (u64, Vec<(u64, u64, u64)>) {
    let net = net(2, seed);
    let mut cfg = XrdmaConfig::default();
    cfg.use_srq = true;
    let server = ctx(&net, 0, cfg.clone());
    let client = ctx(&net, 1, cfg);
    let digest = Digest::new();
    let counters: Rc<RefCell<std::collections::BTreeMap<u32, u64>>> =
        Rc::new(RefCell::new(std::collections::BTreeMap::new()));
    // Map each accepted channel to a stream id by arrival order: the
    // connects below are issued in lcid order on one event lane.
    let next_stream = Rc::new(Cell::new(1u64));
    let d = digest.clone();
    let streams: Rc<RefCell<std::collections::BTreeMap<u32, u64>>> =
        Rc::new(RefCell::new(std::collections::BTreeMap::new()));
    let st2 = streams.clone();
    let ns = next_stream.clone();
    let ctrs = counters.clone();
    server.listen(7, move |ch| {
        let sid = ns.get();
        ns.set(sid + 1);
        st2.borrow_mut().insert(ch.qp.qpn.0, sid);
        let d2 = d.clone();
        let st3 = st2.clone();
        let ctr = ctrs.clone();
        ch.set_on_request(move |ch2, msg, _| {
            let sid = *st3.borrow().get(&ch2.qp.qpn.0).unwrap();
            let mut map = ctr.borrow_mut();
            let seq = map.entry(ch2.qp.qpn.0).or_insert(0);
            d2.eat(sid, *seq, msg.len, &msg.body());
            *seq += 1;
        });
    });
    let mut chans = Vec::new();
    for _ in 0..n_logical {
        let slot: Rc<RefCell<Option<Rc<xrdma_core::XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        client.connect(NodeId(0), 7, move |r| {
            *s2.borrow_mut() = Some(r.expect("connect"));
        });
        net.world.run_for(Dur::millis(10));
        chans.push(slot.borrow().clone().expect("connected"));
    }
    for i in 0..per {
        for (k, ch) in chans.iter().enumerate() {
            ch.send_oneway(body_for(k as u64 + 1, i)).unwrap();
        }
    }
    net.world.run_for(Dur::millis(500));
    assert_eq!(digest.frames().len() as u64, n_logical * per);
    let mut frames = digest.frames();
    frames.sort_unstable();
    let h = Digest::new();
    for (a, b, c) in &frames {
        h.eat(*a, *b, *c, &[]);
    }
    (h.value(), frames)
}

/// Satellite 4: with pool ≥ channel count the mux is semantically
/// invisible — per-stream delivery order and content digest match the
/// unmuxed path, and a same-seed rerun is byte-identical.
#[test]
fn differential_mux_vs_unmuxed_digest() {
    let (mux_digest, mux_frames) = run_muxed(42, 4, 16);
    let (plain_digest, plain_frames) = run_unmuxed(42, 4, 16);
    assert_eq!(mux_frames, plain_frames, "per-stream delivery identical");
    assert_eq!(mux_digest, plain_digest);

    let (mux_again, _) = run_muxed(42, 4, 16);
    assert_eq!(mux_digest, mux_again, "same seed, same digest");
    let (mux_other, _) = run_muxed(43, 4, 16);
    // Different seed still delivers everything; digest over (lcid, lseq,
    // len) is seed-independent by construction, so assert on it matching
    // too — the *content* ordering contract is total.
    assert_eq!(mux_digest, mux_other);
}
