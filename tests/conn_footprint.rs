//! Bytes per connection (§VII-F, "thousands of connections per machine"):
//! the live heap each added connected channel pair and each added context
//! costs, counted by a wrapping global allocator. A per-connection
//! structure that allocates for its worst case instead of its use shows
//! up here as a budget overrun. The same holds for the two structures a
//! multiplexed deployment scales by: idle logical channels and SRQ slots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use xrdma_core::{ChannelMux, XrdmaChannel, XrdmaConfig, XrdmaContext, XrdmaMsg};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};

/// Counts the live heap bytes of the allocating thread only, so the test
/// harness's own threads do not leak into a measurement. `alloc_zeroed`
/// and `realloc` keep their default bodies, which go through these two.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// Connections measured past a warm-up set, so one-time growth (the
/// first QP, the first CQ entries, table doublings near the start) is
/// not charged to every connection.
const WARM: usize = 8;
const ADDED: usize = 32;

/// Measured with telemetry compiled in, as it now always is; the budgets
/// are these plus 25 %. The pair figure is from when receive queues began
/// to store runs of WRs and a consumed slot's message to leave the MR
/// (with a 32 B entry per posted WR and every message kept, a pair cost
/// 11 630 B; with one 24 B record per slot besides, 17 518 B); the
/// context figure from when histograms began to grow on demand (a context
/// now measures 2 071 B). With every histogram holding all its buckets
/// from the start, a pair cost 77 934 B and a context 32 263 B.
const PAIR_BYTES: isize = 3_710;
const CONTEXT_BYTES: isize = 2_055;

/// Measured when a logical channel shrank to its id, peer and an index
/// (a 40 B `Rc`) and the SRQ slot table to one entry per arena; the SRQ
/// slot figure when the SRQ's WR queue, too, began to store one run per
/// arena. Before, an idle logical channel cost 84 B (a 72 B `Rc` plus
/// its share of the `opened` table) and an SRQ slot 56 B (a 32 B receive
/// WR plus a 24 B buffer record), then 32 B (the WR alone).
const LOGICAL_BYTES: isize = 52;
const SRQ_SLOT_BYTES: isize = 0;

fn budget(measured: isize) -> isize {
    measured + measured / 4
}

struct Rig {
    world: Rc<World>,
    a: Rc<XrdmaContext>,
    b: Rc<XrdmaContext>,
    channels: Rc<RefCell<Vec<Rc<XrdmaChannel>>>>,
}

fn rig() -> Rig {
    let world = World::new();
    let rng = SimRng::new(1);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(2), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let cfg = XrdmaConfig::default();
    let rnic_cfg = RnicConfig::default();
    let a = XrdmaContext::on_new_node(&fabric, &cm, NodeId(0), rnic_cfg.clone(), cfg.clone(), &rng);
    let b = XrdmaContext::on_new_node(&fabric, &cm, NodeId(1), rnic_cfg, cfg, &rng);
    let channels = Rc::new(RefCell::new(Vec::new()));
    let server_side = channels.clone();
    b.listen(7, move |ch| server_side.borrow_mut().push(ch));
    Rig {
        world,
        a,
        b,
        channels,
    }
}

/// Connect `n` more channels from `a` to `b` and let them establish.
fn connect(r: &Rig, n: usize) {
    for _ in 0..n {
        let client_side = r.channels.clone();
        r.a.connect(NodeId(1), 7, move |ch| {
            client_side.borrow_mut().push(ch.expect("connect"));
        });
    }
    r.world.run_for(Dur::millis(50));
}

/// Live heap bytes per added connected channel pair (both ends).
fn bytes_per_channel_pair() -> isize {
    let r = rig();
    connect(&r, WARM);
    assert_eq!(r.channels.borrow().len(), 2 * WARM);
    let before = live_bytes();
    connect(&r, ADDED);
    let after = live_bytes();
    assert_eq!(r.channels.borrow().len(), 2 * (WARM + ADDED));
    assert_eq!(r.a.channels().len(), WARM + ADDED);
    assert_eq!(r.b.channels().len(), WARM + ADDED);
    (after - before) / ADDED as isize
}

/// Live heap bytes per added context sharing one RNIC.
fn bytes_per_context() -> isize {
    let r = rig();
    let cm = ConnManager::new(r.world.clone(), CmConfig::default(), SimRng::new(2));
    let mut ctxs = Vec::new();
    let mut add = |n: usize| {
        for _ in 0..n {
            let i = ctxs.len();
            let ctx = XrdmaContext::new(r.a.rnic(), &cm, XrdmaConfig::default(), &format!("t{i}"));
            ctxs.push(ctx);
        }
    };
    add(WARM);
    let before = live_bytes();
    add(ADDED);
    let after = live_bytes();
    assert_eq!(ctxs.len(), WARM + ADDED);
    (after - before) / ADDED as isize
}

#[test]
fn bytes_per_connection_stay_within_budget() {
    let pair = bytes_per_channel_pair();
    let ctx = bytes_per_context();
    println!(
        "live heap: {pair} B per connected channel pair (budget {}), \
         {ctx} B per context (budget {})",
        budget(PAIR_BYTES),
        budget(CONTEXT_BYTES)
    );
    assert!(
        pair <= budget(PAIR_BYTES),
        "{pair} B per channel pair, budget {}",
        budget(PAIR_BYTES)
    );
    assert!(
        ctx <= budget(CONTEXT_BYTES),
        "{ctx} B per context, budget {}",
        budget(CONTEXT_BYTES)
    );
}

/// Logical channels opened past a warm set, none of which ever sends.
const LOGICAL_WARM: usize = 1_000;
const LOGICAL_ADDED: usize = 10_000;

/// Live heap bytes per idle logical channel: `ChannelMux::open` costs a
/// table entry and nothing per connection beyond it.
fn bytes_per_idle_logical() -> isize {
    let r = rig();
    let mux = ChannelMux::new(&r.a, 9);
    let open = |n: usize| {
        for _ in 0..n {
            mux.open(NodeId(1));
        }
    };
    open(LOGICAL_WARM);
    let before = live_bytes();
    open(LOGICAL_ADDED);
    let after = live_bytes();
    assert_eq!(
        mux.stats().logical_open,
        (LOGICAL_WARM + LOGICAL_ADDED) as u64
    );
    (after - before) / LOGICAL_ADDED as isize
}

#[test]
fn idle_logical_channel_bytes() {
    let per = bytes_per_idle_logical();
    println!(
        "live heap: {per} B per idle logical channel (budget {})",
        budget(LOGICAL_BYTES)
    );
    assert!(
        per <= budget(LOGICAL_BYTES),
        "{per} B per idle logical channel, budget {}",
        budget(LOGICAL_BYTES)
    );
}

/// Live heap bytes of one more SRQ context on a shared RNIC.
fn srq_context_bytes(r: &Rig, cm: &Rc<ConnManager>, srq_size: usize) -> (isize, Rc<XrdmaContext>) {
    let mut cfg = XrdmaConfig::default();
    cfg.use_srq = true;
    cfg.srq_size = srq_size;
    let before = live_bytes();
    let ctx = XrdmaContext::new(r.a.rnic(), cm, cfg, "srq");
    (live_bytes() - before, ctx)
}

/// Live heap bytes per shared receive slot: the difference between two
/// SRQ contexts whose pools differ in size (both powers of two, so the
/// queues' capacity doubling adds nothing on top).
#[test]
fn srq_context_bytes_per_slot() {
    const SMALL: usize = 1 << 10;
    const LARGE: usize = 1 << 13;
    let r = rig();
    let cm = ConnManager::new(r.world.clone(), CmConfig::default(), SimRng::new(2));
    let mut keep = Vec::new();
    // Warm: the RNIC's own tables grow with the first contexts.
    for _ in 0..WARM {
        keep.push(srq_context_bytes(&r, &cm, SMALL).1);
    }
    let (small, a) = srq_context_bytes(&r, &cm, SMALL);
    let (large, b) = srq_context_bytes(&r, &cm, LARGE);
    keep.extend([a, b]);
    let per = (large - small) / (LARGE - SMALL) as isize;
    println!(
        "live heap: {per} B per SRQ slot (budget {})",
        budget(SRQ_SLOT_BYTES)
    );
    assert!(
        per <= budget(SRQ_SLOT_BYTES),
        "{per} B per SRQ slot, budget {}",
        budget(SRQ_SLOT_BYTES)
    );
}

/// After an RPC burst has been answered and the channels are quiet, both
/// contexts' memory caches hold the bytes they held before it: every
/// consumed receive slot gave its message back to the MR when it was
/// reposted, and every staged eager body when it was released, so a
/// connection's stored bytes follow what is in flight, not what has
/// passed through it. Run with size-only bodies and with 64 B of real
/// bytes each way.
#[test]
fn consumed_slots_leave_the_mr() {
    const RPCS: u32 = 200;
    for real in [false, true] {
        let r = rig();
        connect(&r, WARM);
        for ch in r.b.channels() {
            ch.set_on_request(move |ch, _, token| {
                let sent = if real {
                    ch.respond(token, Bytes::from_static(&[0x5A; 64]))
                } else {
                    ch.respond_size(token, 64)
                };
                sent.unwrap();
            });
        }
        let stored = || (r.a.memcache().stored_bytes(), r.b.memcache().stored_bytes());
        let before = stored();
        let answered = Rc::new(Cell::new(0));
        for ch in r.a.channels() {
            for _ in 0..RPCS {
                let answered = answered.clone();
                let done = move |_: &Rc<XrdmaChannel>, msg: XrdmaMsg| {
                    assert!(!msg.is_error());
                    answered.set(answered.get() + 1);
                };
                let sent = if real {
                    ch.send_request(Bytes::from_static(&[0xA5; 64]), done)
                } else {
                    ch.send_request_size(64, done)
                };
                sent.unwrap();
            }
        }
        r.world.run_for(Dur::millis(200));
        assert_eq!(answered.get(), RPCS * WARM as u32, "every RPC answered");
        assert_eq!(
            stored(),
            before,
            "stored memcache bytes (client, server) after the burst, real bodies: {real}"
        );
    }
}
