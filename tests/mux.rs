//! Connection-multiplexing tests: logical channels over a bounded QP
//! pool, LRU eviction with transparent re-establishment, the
//! differential contract against the unmuxed path (DESIGN.md §3.16), and
//! what the pool buys past the NIC's QP-context cache: message rate,
//! cache misses, receive memory and restart time against one QP per
//! connection.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;

use xrdma_core::{ChannelMux, XrdmaChannel, XrdmaConfig, XrdmaContext};
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
    ctx_with(net, node, RnicConfig::default(), cfg)
}

fn ctx_with(net: &Net, node: u32, rnic: RnicConfig, cfg: XrdmaConfig) -> Rc<XrdmaContext> {
    XrdmaContext::on_new_node(&net.fabric, &net.cm, NodeId(node), rnic, cfg, &net.rng)
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

// ---------------------------------------------------------------------------
// Past the QP-context cliff: a 64-slot pool against one QP per connection,
// with 4 096 connections over a 256-entry QP-context cache.
// ---------------------------------------------------------------------------

const SERVERS: u32 = 8;
const LANES: u64 = 8;
const POOL: usize = SERVERS as usize * LANES as usize;
const CONNS: usize = 4096;

/// A cold QP context costs a 3 µs fetch chain across PCIe, and the SRAM
/// holds a sixteenth of the connections but the whole mux pool.
fn cliff_rnic() -> RnicConfig {
    RnicConfig {
        qp_cache_entries: 256,
        qp_cache_miss: Dur::nanos(3000),
        ..Default::default()
    }
}

/// A lean 80 ns host path, so the NIC's QP-context pipeline and not the
/// host CPU limits the rate; keepalive idles out of the way.
fn cliff_cfg() -> XrdmaConfig {
    XrdmaConfig {
        keepalive_intv: Dur::millis(10_000),
        cpu_send: Dur::nanos(80),
        cpu_recv: Dur::nanos(80),
        ..Default::default()
    }
}

/// One QP per connection, with a shallow window so its per-channel
/// receive slots stay small.
fn per_channel_cliff_cfg() -> XrdmaConfig {
    XrdmaConfig {
        inflight_depth: 4,
        ..cliff_cfg()
    }
}

/// The pool shares one SRQ that covers its aggregate window with slack.
fn mux_cliff_cfg() -> XrdmaConfig {
    XrdmaConfig {
        mux_pool: POOL,
        mux_lanes: LANES,
        use_srq: true,
        srq_size: 2 * POOL * 64,
        ..cliff_cfg()
    }
}

/// Connection `i`'s server, striped so that the peer and the lane hash
/// (`lcid % LANES`) stay decorrelated and every pool slot carries traffic.
fn peer_of(i: usize) -> NodeId {
    NodeId(1 + (i as u32 / LANES as u32) % SERVERS)
}

/// The client (node 0) and its servers, each server answering 64 B RPCs
/// on service 7 through a mux or on plain channels. The servers live as
/// long as the returned handles.
fn cliff_rig(seed: u64, muxed: bool) -> (Net, Rc<XrdmaContext>, Vec<Rc<XrdmaContext>>) {
    let net = net(SERVERS + 1, seed);
    let cfg = if muxed {
        mux_cliff_cfg()
    } else {
        per_channel_cliff_cfg()
    };
    let mut servers = Vec::new();
    for i in 1..=SERVERS {
        let server = ctx_with(&net, i, cliff_rnic(), cfg.clone());
        if muxed {
            let m = ChannelMux::new(&server, 7);
            m.serve(|_, _, reply| {
                if let Some(r) = reply {
                    r.reply_size(64).expect("reply");
                }
            });
            std::mem::forget(m);
        } else {
            server.listen(7, |ch| {
                ch.set_on_request(|ch, _msg, token| {
                    ch.respond_size(token, 64).expect("respond");
                });
            });
        }
        servers.push(server);
    }
    let client = ctx_with(&net, 0, cliff_rnic(), cfg);
    (net, client, servers)
}

/// Connect all `CONNS` plain channels; returns once every one is up.
fn connect_all(net: &Net, client: &Rc<XrdmaContext>) -> Vec<Rc<XrdmaChannel>> {
    let slots: Vec<Rc<RefCell<Option<Rc<XrdmaChannel>>>>> = (0..CONNS)
        .map(|i| {
            let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::default();
            let s2 = slot.clone();
            client.connect(peer_of(i), 7, move |r| {
                *s2.borrow_mut() = Some(r.expect("connect"));
            });
            slot
        })
        .collect();
    net.world.run_for(Dur::millis(100));
    slots
        .iter()
        .map(|s| s.borrow().clone().expect("connected"))
        .collect()
}

/// The steady state of one leg: completed RPCs per simulated second, the
/// client NIC's QP-cache miss share, and client receive bytes per
/// connection.
struct CliffLeg {
    rate: f64,
    miss: f64,
    bytes_per_conn: f64,
}

/// Let the pipelines fill for 5 ms, then measure 10 ms.
fn measure_cliff(net: &Net, client: &Rc<XrdmaContext>, done: &Rc<Cell<u64>>) -> CliffLeg {
    net.world.run_for(Dur::millis(5));
    let (s0, n0, t0) = (client.rnic().stats(), done.get(), net.world.now());
    net.world.run_for(Dur::millis(10));
    let s1 = client.rnic().stats();
    let hits = s1.qp_cache_hits - s0.qp_cache_hits;
    let misses = s1.qp_cache_misses - s0.qp_cache_misses;
    CliffLeg {
        rate: (done.get() - n0) as f64 / net.world.now().since(t0).as_secs_f64(),
        miss: misses as f64 / (hits + misses).max(1) as f64,
        bytes_per_conn: client.stats().memcache_occupied as f64 / CONNS as f64,
    }
}

/// Every connection keeps one 64 B RPC in flight through the mux pool.
fn muxed_cliff_leg() -> CliffLeg {
    let (net, client, _servers) = cliff_rig(7, true);
    let mux = ChannelMux::new(&client, 7);
    let logicals: Vec<_> = (0..CONNS).map(|i| mux.open(peer_of(i))).collect();
    net.world.run_for(Dur::millis(10));
    fn pump(lc: &Rc<xrdma_core::LogicalChannel>, done: &Rc<Cell<u64>>) {
        let (l2, d2) = (lc.clone(), done.clone());
        lc.send_request_size(64, move |_| {
            d2.set(d2.get() + 1);
            pump(&l2, &d2);
        })
        .expect("send accepted");
    }
    let done = Rc::new(Cell::new(0u64));
    for lc in &logicals {
        pump(lc, &done);
    }
    measure_cliff(&net, &client, &done)
}

/// Every connection keeps one 64 B RPC in flight on its own QP.
fn per_channel_cliff_leg() -> CliffLeg {
    let (net, client, _servers) = cliff_rig(7, false);
    let channels = connect_all(&net, &client);
    let done = Rc::new(Cell::new(0u64));
    for ch in &channels {
        xrdma_tests::pump(ch, 64, &done);
    }
    measure_cliff(&net, &client, &done)
}

/// After a full teardown the whole population asks for service at once;
/// returns the virtual ms, in 1 ms steps, until one RPC on every
/// connection has completed.
fn restart_storm(muxed: bool) -> u64 {
    let (net, client, _servers) = cliff_rig(11, muxed);
    let live = Rc::new(Cell::new(0usize));
    let _mux = if muxed {
        // A warm epoch carries traffic, then the process restarts: its mux
        // and pool QPs go, and the new incarnation bumps the epoch.
        {
            let mux = ChannelMux::new(&client, 7);
            for i in 1..=SERVERS {
                mux.open(NodeId(i))
                    .send_request_size(64, |_| {})
                    .expect("send accepted");
            }
            net.world.run_for(Dur::millis(20));
        }
        net.world.run_for(Dur::millis(20));
        let mux = ChannelMux::with_epoch(&client, 7, 1);
        for i in 0..CONNS {
            let l2 = live.clone();
            mux.open(peer_of(i))
                .send_request_size(64, move |_| l2.set(l2.get() + 1))
                .expect("send accepted");
        }
        Some(mux)
    } else {
        for ch in connect_all(&net, &client) {
            ch.close();
        }
        net.world.run_for(Dur::millis(50));
        for i in 0..CONNS {
            let l2 = live.clone();
            client.connect(peer_of(i), 7, move |r| {
                let l3 = l2.clone();
                r.expect("reconnect")
                    .send_request_size(64, move |_, _| l3.set(l3.get() + 1))
                    .expect("send accepted");
            });
        }
        None
    };
    for ms in 1..=3000 {
        net.world.run_for(Dur::millis(1));
        if live.get() == CONNS {
            return ms;
        }
    }
    panic!("restart storm (muxed {muxed}) stalled at {}", live.get());
}

/// Past the QP-context cliff the pool stays cache-resident while one QP
/// per connection thrashes: the mux gains at least 5x message rate, its
/// miss share stays under 5 % while per-channel's passes 40 % (its
/// asymptote is 50 %: one cold fetch and one warm touch per RPC), its
/// receive bytes per connection are at most a quarter, and after a
/// restart storm it reaches full service sooner.
#[test]
fn mux_outscales_one_qp_per_connection_past_the_qp_cache() {
    let m = muxed_cliff_leg();
    let p = per_channel_cliff_leg();
    let gain = m.rate / p.rate;
    assert!(
        gain >= 5.0,
        "{gain:.2}x ({:.0} vs {:.0} msg/s)",
        m.rate,
        p.rate
    );
    assert!(
        m.miss < 0.05 && p.miss > 0.4,
        "miss share {:.3} muxed vs {:.3} per-channel",
        m.miss,
        p.miss
    );
    assert!(
        m.bytes_per_conn <= p.bytes_per_conn / 4.0,
        "{:.0} vs {:.0} receive bytes per connection",
        m.bytes_per_conn,
        p.bytes_per_conn
    );
    let (muxed_ms, per_channel_ms) = (restart_storm(true), restart_storm(false));
    assert!(
        muxed_ms < per_channel_ms,
        "full service after {muxed_ms} ms muxed vs {per_channel_ms} ms per-channel"
    );
}
