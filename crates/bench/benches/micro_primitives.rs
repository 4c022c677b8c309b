//! Criterion micro-benchmarks of the hot primitives every experiment sits
//! on: the DES event loop, RNG, statistics, protocol header codec, seq-ack
//! window and the sparse memory backing. These guard the simulator's own
//! performance (wall-clock per virtual event) against regressions.

use std::rc::Rc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use xrdma_core::proto::{Header, LargeDesc, MsgKind};
use xrdma_core::seqack::{RxWindow, TxWindow};
use xrdma_fabric::ecmp_hash;
use xrdma_rnic::mem::MemTable;
use xrdma_rnic::{AccessFlags, PageKind};
use xrdma_sim::stats::Histogram;
use xrdma_sim::{DelayLine, Dur, ShardConfig, ShardWorld, SimRng, Time, Timer, World};

/// A one-shot that re-schedules itself `gap_ns` later, `left` times.
fn rearm_chain(w: &Rc<World>, gap_ns: u64, left: u32) {
    if left == 0 {
        return;
    }
    let w2 = w.clone();
    w.schedule_in(Dur::nanos(gap_ns), move || {
        rearm_chain(&w2, gap_ns, left - 1)
    });
}

/// `incast_bulk`'s calendar shape: 64 packets in flight, each re-sent over
/// one constant 250 ns hop from its own handler 100 times, beside 32
/// re-arming timers so every pop merges line heads with calendar keys.
/// `lines` sends the hops through a [`DelayLine`], otherwise each is a
/// boxed `schedule_in` one-shot; the event order is the same either way.
fn hop_storm(lines: bool) -> u64 {
    use std::cell::RefCell;
    const HOP: Dur = Dur::nanos(250);
    fn one_shot_hop(w: &Rc<World>, left: u32) {
        if left > 0 {
            let w2 = w.clone();
            w.schedule_in(HOP, move || one_shot_hop(&w2, left - 1));
        }
    }
    let w = World::new();
    let timers: Vec<_> = (0..32u64)
        .map(|i| {
            let t = w.periodic(Dur::nanos(320 + i), || {});
            t.arm_in(Dur::nanos(320 + i));
            t
        })
        .collect();
    let own: Rc<RefCell<Option<DelayLine<u32>>>> = Rc::new(RefCell::new(None));
    if lines {
        let o = own.clone();
        *own.borrow_mut() = Some(w.delay_line(HOP, move |left: u32| {
            if left > 0 {
                o.borrow().as_ref().expect("installed").send(left - 1);
            }
        }));
    }
    for i in 0..64u64 {
        w.run_until(Time(3 * i)); // stagger the 64 packets
        match own.borrow().as_ref() {
            Some(line) => line.send(100),
            None => one_shot_hop(&w, 101),
        }
    }
    w.run_until(Time(102 * 250));
    drop(timers);
    *own.borrow_mut() = None; // break the handler -> handle -> world cycle
    w.events_executed()
}

/// `timers` periodic no-op timers of period `period_ns`, first firings
/// spread over the first `spread_ns` nanoseconds. The handles keep them
/// ticking; each `run_for(period)` then fires every timer once.
fn timer_storm(timers: u64, period_ns: u64, spread_ns: u64) -> (Rc<World>, Vec<Timer>) {
    let w = World::new();
    let handles = (0..timers)
        .map(|i| {
            let t = w.periodic(Dur::nanos(period_ns), || {});
            t.arm_in(Dur::nanos(1 + i * spread_ns / timers));
            t
        })
        .collect();
    (w, handles)
}

fn bench_event_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("schedule_and_run_1000_events", |b| {
        b.iter(|| {
            let w = World::new();
            for i in 0..1000u64 {
                w.schedule_in(Dur::nanos(i % 97), || {});
            }
            w.run();
            black_box(w.events_executed())
        })
    });
    g.bench_function("self_rescheduling_timer_1000_ticks", |b| {
        b.iter(|| {
            let w = World::new();
            rearm_chain(&w, 50, 1000);
            w.run();
            black_box(w.now())
        })
    });
    // Retransmit-timer shape: most scheduled events are cancelled before
    // they fire, so calendar pop must stay cheap under dead entries.
    g.bench_function("cancel_heavy_1000_events", |b| {
        b.iter(|| {
            let w = World::new();
            let ids: Vec<_> = (0..1000u64)
                .map(|i| w.schedule_in(Dur::nanos(1_000 + i), || {}))
                .collect();
            for id in ids.iter().step_by(2) {
                w.cancel(*id);
            }
            w.run();
            black_box(w.events_executed())
        })
    });
    // The first-class re-armable timer: one closure boxed once, every
    // subsequent tick recycles the slab slot.
    g.bench_function("periodic_timer_1000_ticks", |b| {
        b.iter(|| {
            let w = World::new();
            let fired = std::rc::Rc::new(std::cell::Cell::new(0u32));
            let f2 = fired.clone();
            let t = w.periodic(Dur::nanos(50), move || f2.set(f2.get() + 1));
            t.arm_in(Dur::nanos(50));
            w.run_for(Dur::nanos(50 * 1000));
            drop(t);
            black_box(fired.get())
        })
    });
    // The `lane_incast` calendar shape: a handful of pending keys that
    // keep crossing bucket edges, so the wheel cursor, a near-future
    // bucket and `current` are all touched on every cycle.
    g.bench_function("wheel_small_population", |b| {
        b.iter(|| {
            let w = World::new();
            // 4096 ns buckets: every gap lands one to three buckets ahead.
            for gap in [4_500u64, 5_700, 7_900, 9_100, 11_300] {
                rearm_chain(&w, gap, 200);
            }
            w.run();
            black_box(w.events_executed())
        })
    });
    // Periodic-timer storms, one firing per timer per iteration. The
    // ladder rung `sim.sched_ns_per_event`: 4096 timers at 1 µs inside one
    // 4096 ns tick, so a re-arm inside the tick lands deep in the reached
    // run and goes to the side heap — the worst case for the run
    // (DESIGN.md §3.19).
    g.throughput(Throughput::Elements(4096));
    g.bench_function("wheel_dense_bucket_4096x1us", |b| {
        let (w, _timers) = timer_storm(4096, 1_000, 1_000);
        b.iter(|| w.run_for(Dur::micros(1)))
    });
    // Re-arms always land in a later bucket: every key arrives through a
    // refill, so pops come straight off the sorted run.
    g.throughput(Throughput::Elements(1024));
    g.bench_function("wheel_sparse_1024x5us", |b| {
        let (w, _timers) = timer_storm(1024, 5_000, 5_000);
        b.iter(|| w.run_for(Dur::micros(5)))
    });
    // A constant-delay hop as a delay-line entry against the boxed
    // one-shot it replaces (DESIGN.md §3.17).
    g.throughput(Throughput::Elements(64 * 101));
    g.bench_function("delay_line_hop", |b| b.iter(|| black_box(hop_storm(true))));
    g.bench_function("schedule_in_hop", |b| {
        b.iter(|| black_box(hop_storm(false)))
    });
    // The `lane_incast` round shape: 256 lanes of which 8 carry a
    // self-re-arming 700 ns event, so nearly every 1 µs lookahead round
    // finds work on a few lanes and nothing on the other 248.
    g.throughput(Throughput::Elements(8 * 1_000_000 / 700));
    g.bench_function("lane_round_sparse_256x8", |b| {
        b.iter(|| {
            let mut w = ShardWorld::new(ShardConfig::default(), 42, vec![0u64; 256]);
            for i in 0..8 {
                w.lane_mut(i * 32 + 5)
                    .start_periodic(Dur::nanos(700), |l| l.state += 1);
            }
            w.run_until(Time(1_000_000));
            black_box(w.total_executed())
        })
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1));
    let mut rng = SimRng::new(7);
    g.bench_function("next_u64", |b| b.iter(|| black_box(rng.next_u64())));
    g.bench_function("exp", |b| b.iter(|| black_box(rng.exp(1000.0))));
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    g.throughput(Throughput::Elements(1));
    let mut h = Histogram::new();
    let mut x = 99u64;
    g.bench_function("record", |b| {
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(x >> 40));
        })
    });
    for v in 0..100_000u64 {
        h.record(v * 37 % 1_000_000);
    }
    g.bench_function("percentile_p99", |b| {
        b.iter(|| black_box(h.percentile(99.0)))
    });
    g.finish();
}

fn bench_header(c: &mut Criterion) {
    let mut g = c.benchmark_group("proto");
    let mut hdr = Header::new(MsgKind::Request, 42, 17, 9, 4096);
    hdr.large = Some(LargeDesc {
        addr: 0xABCD_EF00,
        rkey: 55,
    });
    g.bench_function("header_encode", |b| b.iter(|| black_box(hdr.encode())));
    let enc = hdr.encode();
    g.bench_function("header_decode", |b| {
        b.iter(|| black_box(Header::decode(&enc).unwrap()))
    });
    g.finish();
}

fn bench_seqack(c: &mut Criterion) {
    let mut g = c.benchmark_group("seqack");
    g.throughput(Throughput::Elements(1));
    g.bench_function("send_recv_ack_cycle", |b| {
        let mut tx = TxWindow::new(64);
        let mut rx = RxWindow::new(64);
        b.iter(|| {
            let s = tx.next_seq();
            rx.on_arrival(s);
            let ready = rx.on_complete(s);
            black_box(&ready);
            let _ = tx.on_ack(rx.take_ack()).count();
        })
    });
    g.finish();
}

fn bench_sparse_memory(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse_mr");
    let table = MemTable::new(0);
    let pd = table.alloc_pd();
    let reg = |len: u64| {
        table.reg_mr(
            &pd,
            len,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        )
    };
    let arena = || reg(4 * 1024 * 1024);
    let mr = arena();
    let data = vec![0xAAu8; 64];
    let mut off = 0u64;
    g.bench_function("write_64B_rotating", |b| {
        b.iter(|| {
            off = (off + 4096) % (4 * 1024 * 1024 - 64);
            mr.write(mr.addr + off, black_box(&data)).unwrap();
        })
    });
    // What the memcache bump allocator produces: every write adjacent to
    // the last (`write_64B_rotating`'s 4096-byte stride never touches its
    // predecessor extent, so it cannot see the cost of growing one). A
    // full arena is followed by a freshly registered one, as in memcache.
    g.bench_function("write_64B_adjacent_bump", |b| {
        let (mut bump_mr, mut at) = (arena(), 0u64);
        b.iter(|| {
            if at + 64 > bump_mr.len {
                table.dereg_mr(&bump_mr);
                (bump_mr, at) = (arena(), 0);
            }
            bump_mr.write(bump_mr.addr + at, black_box(&data)).unwrap();
            at += 64;
        })
    });
    g.bench_function("read_64B", |b| {
        b.iter(|| black_box(mr.read(mr.addr + 8192, 64).unwrap()))
    });
    g.bench_function("read_into_64B", |b| {
        let mut out = [0u8; 64];
        b.iter(|| {
            mr.read_into(mr.addr + 8192, black_box(&mut out)).unwrap();
            out[0]
        })
    });
    // The eager receive path's shape: one 44 B header per receive slot,
    // slots 4160 B apart so they never merge (1024 extents), then one
    // slot's header rewritten and parsed at a time.
    const SLOTS: u64 = 1024;
    const STRIDE: u64 = 4160;
    let hdr = [0x5Au8; 44];
    g.bench_function("rw_slot_headers_1024", |b| {
        let slots = reg(SLOTS * STRIDE);
        for i in 0..SLOTS {
            slots.write(slots.addr + i * STRIDE, &hdr).unwrap();
        }
        let (mut i, mut out) = (0u64, [0u8; 44]);
        b.iter(|| {
            i = (i + 1) % SLOTS;
            let at = slots.addr + i * STRIDE;
            slots.write(at, black_box(&hdr)).unwrap();
            slots.read_into(at, &mut out).unwrap();
            out[0]
        })
    });
    // The sorted index's worst case: every write opens an extent in front
    // of all the others, so each insert shifts every entry.
    g.throughput(Throughput::Elements(SLOTS));
    g.bench_function("insert_descending_1024", |b| {
        b.iter(|| {
            let fresh = reg(SLOTS * STRIDE);
            for i in (0..SLOTS).rev() {
                fresh
                    .write(fresh.addr + i * STRIDE, black_box(&hdr))
                    .unwrap();
            }
            table.dereg_mr(&fresh);
        })
    });
    g.finish();
}

fn bench_shared_cq(c: &mut Criterion) {
    use xrdma_rnic::verbs::Qpn;
    use xrdma_rnic::{Cqe, CqeOpcode, CqeStatus, SharedCq};
    let cqe = |i: u64| Cqe {
        wr_id: i,
        status: CqeStatus::Success,
        opcode: CqeOpcode::Send,
        byte_len: 64,
        imm: None,
        qpn: Qpn((i % 8) as u32),
        span: xrdma_rnic::SpanToken::NONE,
    };
    let mut g = c.benchmark_group("shared_cq");
    // The empty poll: a pump that finds the CQ already drained pays it
    // before re-arming the notification, so it must cost next to nothing.
    g.bench_function("poll_cq_empty", |b| {
        let cq = SharedCq::new(0, 256);
        let mut out = Vec::with_capacity(64);
        b.iter(|| black_box(cq.poll_cq(&mut out, 64)))
    });
    // Steady-state drain: 32 CQEs in, one batched poll out.
    g.throughput(Throughput::Elements(32));
    g.bench_function("push32_poll_cq_batch64", |b| {
        let cq = SharedCq::new(0, 256);
        let mut out = Vec::with_capacity(64);
        b.iter(|| {
            for i in 0..32u64 {
                cq.push(cqe(i));
            }
            black_box(cq.poll_cq(&mut out, 64))
        })
    });
    // Overflow shape: the queue saturates at depth, the batch cap (16)
    // is smaller than the backlog, and draining takes several calls.
    g.throughput(Throughput::Elements(64));
    g.bench_function("overflow_then_drain_batch16", |b| {
        let cq = SharedCq::new(0, 64);
        let mut out = Vec::with_capacity(16);
        b.iter(|| {
            for i in 0..80u64 {
                cq.push(cqe(i));
            }
            while cq.poll_cq(&mut out, 16) > 0 {}
            black_box(cq.overflowed())
        })
    });
    g.finish();
}

fn bench_mux_slots(c: &mut Criterion) {
    use xrdma_core::LruSlots;
    type Key = (u32, u64);
    let mut g = c.benchmark_group("mux_slots");
    g.throughput(Throughput::Elements(1));
    // Steady state: every send touches its slot key — the mux fast path.
    g.bench_function("touch_hit_64_resident", |b| {
        let mut l: LruSlots<Key> = LruSlots::new();
        for p in 0..64u32 {
            l.insert((p, 0));
        }
        let mut p = 0u32;
        b.iter(|| {
            p = (p + 1) % 64;
            black_box(l.touch(&(p, 0)))
        })
    });
    // Cold slot under a full pool: the miss decides an eviction — pop the
    // LRU victim, insert the newcomer (the cache-cliff shape qpscale
    // measures end to end).
    g.bench_function("miss_evict_insert_64_resident", |b| {
        let mut l: LruSlots<Key> = LruSlots::new();
        for p in 0..64u32 {
            l.insert((p, 0));
        }
        let mut next = 64u32;
        b.iter(|| {
            let victim = l.pop_lru().unwrap();
            black_box(victim);
            l.insert((next, 0));
            next = next.wrapping_add(1);
        })
    });
    // Transparent re-establishment: the evicted key comes back (remove by
    // death, insert fresh).
    g.bench_function("reestablish_remove_insert", |b| {
        let mut l: LruSlots<Key> = LruSlots::new();
        for p in 0..64u32 {
            l.insert((p, 0));
        }
        let mut p = 0u32;
        b.iter(|| {
            p = (p + 1) % 64;
            l.remove(&(p, 0));
            l.insert((p, 0));
        })
    });
    g.finish();
}

fn bench_ecmp(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    let mut flow = 0u64;
    g.bench_function("ecmp_hash", |b| {
        b.iter(|| {
            flow = flow.wrapping_add(1);
            black_box(ecmp_hash(flow, 0xA1, 8))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_loop,
    bench_rng,
    bench_histogram,
    bench_header,
    bench_seqack,
    bench_sparse_memory,
    bench_shared_cq,
    bench_mux_slots,
    bench_ecmp
);
criterion_main!(benches);
