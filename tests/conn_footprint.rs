//! Bytes per connection (§VII-F, "thousands of connections per machine"):
//! the live heap each added connected channel pair and each added context
//! costs, counted by a wrapping global allocator. A per-connection
//! structure that allocates for its worst case instead of its use shows
//! up here as a budget overrun.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext};
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

/// Measured when histograms began to grow on demand (with telemetry
/// compiled in, as it now always is); the budgets are these plus 25 %.
/// With every histogram holding all its buckets from the start, a pair
/// cost 77 934 B and a context 32 263 B.
const PAIR_BYTES: isize = 17_518;
const CONTEXT_BYTES: isize = 2_055;

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
