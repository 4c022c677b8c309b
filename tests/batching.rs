//! Differential test for the shared-CQ / doorbell-coalescing fast path:
//! batching is a *pure performance transform*. Running the same fixed
//! workload with coalescing + deep CQ drains versus the fully serialized
//! configuration (`doorbell_coalesce = false`, `cq_poll_batch = 1`) must
//! produce identical message-level outcomes — payload bytes, per-channel
//! delivery order, final Seq-Ack state and RPC completion counts. Only
//! cross-channel interleaving and cycle accounting may differ.
//!
//! And it must pay: one client fanning 64 B RPCs out to many servers
//! through its one shared CQ runs faster batched than serial, and spends
//! fewer client CPU cycles per message.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use xrdma_core::proto::MsgKind;
use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};
use xrdma_tests::pump;

const CLIENTS: u32 = 4;
const EAGER_RPCS: usize = 8;
const LARGE_RPCS: usize = 2;
const ONEWAYS: usize = 4;
/// Above `small_msg_size` (4 KiB default) — takes the rendezvous path in
/// both directions (request out, echoed response back).
const LARGE_LEN: usize = 48 * 1024;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic patterned payload so echo mismatches are detectable.
fn payload(client: u32, slot: usize, len: usize) -> Bytes {
    let seed = (client as usize).wrapping_mul(31).wrapping_add(slot * 7) as u8;
    Bytes::from(
        (0..len)
            .map(|i| seed.wrapping_add(i as u8))
            .collect::<Vec<u8>>(),
    )
}

/// Everything message-level about one run, keyed by client node so only
/// *per-channel* order is compared (cross-channel interleaving is allowed
/// to shift under batching).
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Server-side deliveries per client: (kind, len, fnv1a(body)) in order.
    server_rx: BTreeMap<u32, Vec<(&'static str, u64, u64)>>,
    /// Client-side responses per client: (len, fnv1a(body)) in order.
    client_rx: BTreeMap<u32, Vec<(u64, u64)>>,
    /// Final (in_flight, wta, rta, unsent_acks) for (client end, server end).
    seqack: BTreeMap<u32, ((u32, u32, u32, u32), (u32, u32, u32, u32))>,
    rpcs_completed: u64,
}

/// Mode-dependent evidence that the configuration under test actually took
/// the code path it claims to — kept out of `Outcome` because it is
/// *allowed* to differ between modes.
struct Evidence {
    doorbells: u64,
    doorbell_wrs: u64,
    max_cqe_batch: u64,
    /// Byte-exact digest for same-seed rerun comparison.
    digest: String,
}

fn run(cfg: &XrdmaConfig, seed: u64) -> (Outcome, Evidence) {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(CLIENTS + 1), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
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

    type RxLog = Rc<RefCell<BTreeMap<u32, Vec<(&'static str, u64, u64)>>>>;
    let server_rx: RxLog = Rc::new(RefCell::new(BTreeMap::new()));
    let server = mk(0);
    {
        let log = server_rx.clone();
        server.listen(9, move |ch| {
            let log = log.clone();
            ch.set_on_request(move |ch, msg, token| {
                let body = msg.body();
                log.borrow_mut().entry(ch.peer.0).or_default().push((
                    match msg.kind {
                        MsgKind::Request => "req",
                        MsgKind::OneWay => "oneway",
                        _ => "other",
                    },
                    msg.len,
                    fnv1a(&body),
                ));
                if msg.kind == MsgKind::Request {
                    // Echo the payload back; large echoes exercise the
                    // rendezvous (RDMA-Read) response path.
                    ch.respond(token, body).expect("respond");
                }
            });
        });
    }

    let mut clients: Vec<(Rc<XrdmaContext>, Rc<RefCell<Option<Rc<XrdmaChannel>>>>)> = Vec::new();
    for i in 1..=CLIENTS {
        let c = mk(i);
        let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        c.connect(NodeId(0), 9, move |r| {
            *s2.borrow_mut() = Some(r.expect("connect"));
        });
        clients.push((c, slot));
    }
    world.run_for(Dur::millis(30));

    // Fixed mixed workload, all posted in one instant per client: small
    // eager RPCs, large rendezvous RPCs, and one-way messages interleaved.
    let client_rx: Rc<RefCell<BTreeMap<u32, Vec<(u64, u64)>>>> =
        Rc::new(RefCell::new(BTreeMap::new()));
    let completed = Rc::new(Cell::new(0u64));
    for (idx, (_, slot)) in clients.iter().enumerate() {
        let node = idx as u32 + 1;
        let ch = slot.borrow().clone().expect("channel up");
        let mut slot_no = 0usize;
        let mut rpc = |len: usize| {
            let body = payload(node, slot_no, len);
            let rx = client_rx.clone();
            let done = completed.clone();
            ch.send_request(body, move |_, rsp| {
                let b = rsp.body();
                rx.borrow_mut()
                    .entry(node)
                    .or_default()
                    .push((rsp.len, fnv1a(&b)));
                done.set(done.get() + 1);
            })
            .expect("send accepted");
            slot_no += 1;
        };
        for j in 0..EAGER_RPCS {
            rpc(64 + 32 * j);
        }
        for _ in 0..LARGE_RPCS {
            rpc(LARGE_LEN);
        }
        for j in 0..ONEWAYS {
            let body = payload(node, 100 + j, 256 + 64 * j);
            ch.send_oneway(body).expect("oneway accepted");
        }
    }
    world.run_for(Dur::millis(400));
    assert_eq!(
        completed.get(),
        CLIENTS as u64 * (EAGER_RPCS + LARGE_RPCS) as u64,
        "workload quiesces"
    );

    let mut seqack = BTreeMap::new();
    let mut doorbells = 0;
    let mut doorbell_wrs = 0;
    let mut max_cqe_batch = 0;
    let mut digest = String::new();
    for ctx in std::iter::once(&server).chain(clients.iter().map(|(c, _)| c)) {
        let cs = ctx.stats();
        doorbells += cs.doorbells_rung;
        doorbell_wrs += cs.doorbell_wrs;
        digest.push_str(&serde_json::to_string(&cs).expect("json"));
        digest.push('\n');
        for ch in ctx.channels() {
            if let Some(h) = ch.cqe_batch_summary() {
                max_cqe_batch = max_cqe_batch.max(h.max);
            }
        }
    }
    for (idx, (_, slot)) in clients.iter().enumerate() {
        let node = idx as u32 + 1;
        let ch = slot.borrow().clone().expect("channel");
        let server_end = server
            .channels()
            .into_iter()
            .find(|c| c.peer.0 == node)
            .expect("server end");
        seqack.insert(node, (ch.seqack_state(), server_end.seqack_state()));
    }
    let outcome = Outcome {
        server_rx: server_rx.borrow().clone(),
        client_rx: client_rx.borrow().clone(),
        seqack,
        rpcs_completed: completed.get(),
    };
    digest.push_str(&format!(
        "{outcome:?}\ntime={} events={}",
        world.now().nanos(),
        world.events_executed()
    ));
    (
        outcome,
        Evidence {
            doorbells,
            doorbell_wrs,
            max_cqe_batch,
            digest,
        },
    )
}

fn batch1_cfg() -> XrdmaConfig {
    XrdmaConfig {
        doorbell_coalesce: false,
        cq_poll_batch: 1,
        ..Default::default()
    }
}

/// The headline property: batching on (defaults) vs fully serialized
/// (batch = 1, no coalescing) — identical message-level outcomes.
#[test]
fn batching_is_a_pure_performance_transform() {
    let (batched, ev_on) = run(&XrdmaConfig::default(), 42);
    let (serial, ev_off) = run(&batch1_cfg(), 42);
    assert_eq!(batched, serial, "message-level outcomes must be identical");
    // Neither leg may be vacuous: the batched run really coalesced
    // doorbells and drained multi-CQE batches; the serial run did not.
    assert!(
        ev_on.doorbell_wrs > ev_on.doorbells,
        "coalescing happened: {} WRs over {} doorbells",
        ev_on.doorbell_wrs,
        ev_on.doorbells
    );
    assert!(
        ev_on.max_cqe_batch > 1,
        "shared CQ drained batches (max {})",
        ev_on.max_cqe_batch
    );
    assert!(
        ev_off.max_cqe_batch <= 1,
        "batch=1 leg must poll one CQE at a time (max {})",
        ev_off.max_cqe_batch
    );
}

/// Same seed, same config → byte-identical digest (serialized stats plus
/// the full outcome debug dump), for every mode. This is what lets the
/// batched fast path ride under the repo-wide determinism contract.
#[test]
fn same_seed_reruns_are_byte_identical() {
    for cfg in [XrdmaConfig::default(), batch1_cfg()] {
        let (_, a) = run(&cfg, 7);
        let (_, b) = run(&cfg, 7);
        assert_eq!(a.digest, b.digest, "rerun digest diverged");
    }
}

/// One leg of the message-rate comparison: completed RPCs per simulated
/// second and client-thread busy nanoseconds per completed RPC.
struct RateLeg {
    rate: f64,
    cycles_per_msg: f64,
}

/// A client on node 0 fans out one channel to each of `conns` servers,
/// every completion landing in the client's one shared CQ; each channel
/// keeps 8 RPCs in flight for `span` after setup.
fn rate_leg(cfg: &XrdmaConfig, conns: u32, span: Dur) -> RateLeg {
    let world = World::new();
    let rng = SimRng::new(42);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(conns + 1), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
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
    let client = mk(0);
    let mut servers = Vec::new();
    let mut slots = Vec::new();
    for i in 1..=conns {
        let server = mk(i);
        server.listen(9, |ch| {
            ch.set_on_request(|ch, _msg, token| {
                ch.respond_size(token, 64).expect("respond");
            });
        });
        servers.push(server);
        let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::default();
        let s2 = slot.clone();
        client.connect(NodeId(i), 9, move |r| {
            *s2.borrow_mut() = Some(r.expect("connect"));
        });
        slots.push(slot);
    }
    world.run_for(Dur::millis(50));

    let done = Rc::new(Cell::new(0u64));
    for slot in &slots {
        let ch = slot.borrow().clone().expect("connected");
        for _ in 0..8 {
            pump(&ch, 64, &done);
        }
    }
    let busy0 = client.thread().total_busy();
    let t0 = world.now();
    world.run_for(span);
    let n = done.get();
    assert!(n > 0, "the leg completed RPCs");
    let busy = client.thread().total_busy() - busy0;
    RateLeg {
        rate: n as f64 / world.now().since(t0).as_secs_f64(),
        cycles_per_msg: busy.as_nanos() as f64 / n as f64,
    }
}

/// At the widest fan-out, batching wins at least 1.3x message rate or
/// cuts client cycles per message to 0.7x or less, and its cycles per
/// message are below serial's: the doorbell and poll charges amortize.
#[test]
fn batching_raises_the_message_rate_at_the_widest_fan_out() {
    let (conns, span) = (64, Dur::millis(40));
    let on = rate_leg(&XrdmaConfig::default(), conns, span);
    let off = rate_leg(&batch1_cfg(), conns, span);
    let rate_gain = on.rate / off.rate;
    let cycle_ratio = on.cycles_per_msg / off.cycles_per_msg;
    assert!(
        rate_gain >= 1.3 || cycle_ratio <= 0.7,
        "{conns} conns: {rate_gain:.3}x rate, {cycle_ratio:.3}x cycles/msg"
    );
    assert!(
        on.cycles_per_msg < off.cycles_per_msg,
        "{conns} conns: {:.0} vs {:.0} ns/msg",
        on.cycles_per_msg,
        off.cycles_per_msg
    );
}
