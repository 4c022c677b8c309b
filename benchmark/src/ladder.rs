//! The ladder: isolated drivers that time calls into one layer's public
//! functions with nothing above it, so a layer's host cost per unit can be
//! set against the count of those units a full run reports
//! (`sim_wall_ns_per_msg ≈ Σ count-per-msg × ns-per-unit`; see README).

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use xrdma_fabric::{Fabric, FabricConfig, NicSink, NodeId, Packet};
use xrdma_rnic::verbs::Payload;
use xrdma_rnic::{AccessFlags, Cqe, PageKind, QpCaps, RecvWr, Rnic, RnicConfig, SendWr};
use xrdma_sim::{Dur, SimRng, World};

use crate::stats::median;

/// Repetitions of each rung; the median is reported.
const REPS: usize = 5;

fn median_of(mut rung: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..REPS).map(|_| rung()).collect();
    median(&runs)
}

/// Every rung, `scale` = 1.0 for a full run (`--quick` passes 1/20).
pub fn run(seed: u64, scale: f64) -> Vec<(&'static str, f64)> {
    let n = |full: u64| ((full as f64 * scale) as u64).max(1);
    vec![
        ("sim.sched_ns_per_event", median_of(|| sched(n(2_000_000)))),
        (
            "fabric.ns_per_pkt_hop",
            median_of(|| fabric_forwarding(seed, n(400))),
        ),
        ("rnic.ns_per_wr", median_of(|| rnic_sends(seed, n(40_000)))),
        ("rnic.ns_per_pkt", median_of(|| rnic_writes(seed, n(64)))),
        ("rnic.mr_write_ns_per_kib", median_of(|| mr_write(n(2_000)))),
    ]
}

/// Bare `World`: 4096 periodic no-op timers, `events` firings in all.
fn sched(events: u64) -> f64 {
    const TIMERS: u64 = 4096;
    let world = World::new();
    let fired = Rc::new(Cell::new(0u64));
    let timers: Vec<_> = (0..TIMERS)
        .map(|i| {
            let f = fired.clone();
            let t = world.periodic(Dur::micros(1), move || f.set(f.get() + 1));
            // Spread the phases so one instant does not hold every timer.
            t.arm_in(Dur::nanos(1 + i % 1000));
            t
        })
        .collect();
    let e0 = world.events_executed();
    let t = Instant::now();
    world.run_for(Dur::micros(events.div_ceil(TIMERS)));
    let wall = t.elapsed().as_nanos() as f64;
    drop(timers);
    wall / (world.events_executed() - e0).max(1) as f64
}

struct CountingSink(Cell<u64>);

impl NicSink for CountingSink {
    fn deliver(&self, pkt: Packet) {
        black_box(pkt.size_bytes);
        self.0.set(self.0.get() + 1);
    }
}

/// `Fabric::send` of 4 KiB packets between stub sinks, no RNIC: a
/// permutation inside one rack (2 port traversals per packet), then rack to
/// next rack through the leaves of a pod (4 traversals).
fn fabric_forwarding(seed: u64, rounds: u64) -> f64 {
    const BURST: u64 = 16;
    let mut wall = 0.0;
    let mut pkt_hops = 0u64;
    for (cfg, shift, hops) in [
        (FabricConfig::rack(17), 8, 2u64),
        (FabricConfig::pod(4, 8, 2), 8, 4),
    ] {
        let world = World::new();
        let fabric = Fabric::new(world.clone(), cfg, &SimRng::new(seed));
        let hosts = fabric.n_hosts();
        let sinks: Vec<Rc<CountingSink>> = (0..hosts)
            .map(|h| {
                let s = Rc::new(CountingSink(Cell::new(0)));
                fabric.attach_host(NodeId(h), s.clone());
                s
            })
            .collect();
        let t = Instant::now();
        for _ in 0..rounds {
            for h in 0..hosts {
                let dst = NodeId((h + shift) % hosts);
                for _ in 0..BURST {
                    let flow = u64::from(h) << 32 | u64::from(dst.0);
                    let pkt = Packet::new(NodeId(h), dst, 3, 4096 + 58, flow, Box::new(()));
                    assert!(fabric.send(pkt), "egress queue overflow in the ladder");
                }
            }
            // 16 packets of 4 KiB drain a 25 Gb/s link in ~21 µs.
            world.run_for(Dur::micros(40));
        }
        wall += t.elapsed().as_nanos() as f64;
        let delivered: u64 = sinks.iter().map(|s| s.0.get()).sum();
        assert_eq!(
            delivered,
            rounds * u64::from(hosts) * BURST,
            "every packet arrives"
        );
        assert_eq!(fabric.stats().snapshot().drops, 0);
        pkt_hops += delivered * hops;
    }
    wall / pkt_hops as f64
}

struct VerbsPair {
    world: Rc<World>,
    a: Rc<Rnic>,
    b: Rc<Rnic>,
    qa: Rc<xrdma_rnic::Qp>,
    qb: Rc<xrdma_rnic::Qp>,
    cqa: Rc<xrdma_rnic::CompletionQueue>,
    cqb: Rc<xrdma_rnic::CompletionQueue>,
}

/// Two RNICs under one ToR, one connected QP pair, no middleware.
fn verbs_pair(seed: u64) -> VerbsPair {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let a = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("a"));
    let b = Rnic::new(&fabric, NodeId(1), RnicConfig::default(), rng.fork("b"));
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let (cqa, cqb) = (a.create_cq(4096), b.create_cq(4096));
    let qa = a.create_qp(&pda, cqa.clone(), cqa.clone(), QpCaps::default(), None);
    let qb = b.create_qp(&pdb, cqb.clone(), cqb.clone(), QpCaps::default(), None);
    Rnic::connect_pair(&a, &qa, &b, &qb).expect("fresh QPs wire cleanly");
    VerbsPair {
        world,
        a,
        b,
        qa,
        qb,
        cqa,
        cqb,
    }
}

/// Raw verbs, 64 B sends in batches of 64: host ns per work request.
fn rnic_sends(seed: u64, wrs: u64) -> f64 {
    const BATCH: u64 = 64;
    let p = verbs_pair(seed);
    let mut cqes: Vec<Cqe> = Vec::new();
    let mut completed = 0u64;
    let batches = wrs.div_ceil(BATCH);
    let t = Instant::now();
    for _ in 0..batches {
        for i in 0..BATCH {
            p.qb.post_recv(RecvWr::new(i, 0, 4096, 0))
                .expect("post_recv");
            p.a.post_send(&p.qa, SendWr::send(i, Payload::Zero(64)))
                .expect("post_send");
        }
        p.world.run_for(Dur::micros(200));
        cqes.clear();
        completed += p.cqa.poll_cq(&mut cqes, 4096) as u64;
        p.cqb.poll_cq(&mut cqes, 4096);
    }
    let wall = t.elapsed().as_nanos() as f64;
    assert_eq!(completed, batches * BATCH, "every send completed");
    wall / completed as f64
}

/// Raw verbs, 1 MiB writes into an unbacked region: host ns per packet.
fn rnic_writes(seed: u64, writes: u64) -> f64 {
    const LEN: u64 = 1 << 20;
    let p = verbs_pair(seed);
    let target = p.b.reg_mr(
        &p.b.alloc_pd(),
        LEN,
        AccessFlags::FULL,
        PageKind::Anonymous,
        false,
        false,
    );
    let mut cqes: Vec<Cqe> = Vec::new();
    let pkts0 = p.a.stats().data_pkts_tx;
    let t = Instant::now();
    for i in 0..writes {
        p.a.post_send(
            &p.qa,
            SendWr::write(i, Payload::Zero(LEN), target.addr, target.rkey),
        )
        .expect("post_send");
        // 1 MiB takes ~340 µs at 25 Gb/s.
        p.world.run_for(Dur::micros(500));
        cqes.clear();
        assert_eq!(p.cqa.poll_cq(&mut cqes, 16), 1, "the write completed");
    }
    let wall = t.elapsed().as_nanos() as f64;
    wall / (p.a.stats().data_pkts_tx - pkts0).max(1) as f64
}

/// `Mr::write` on a backed region the way the eager receive path uses
/// one: each message body is staged into the next adjacent slot (64 B to
/// 2 KiB) of a 4 MiB memcache arena, and a full arena is followed by a
/// freshly registered one. The cost per KiB depends on how far into the
/// arena the writes have come, so the slot count is part of the rung.
fn mr_write(writes: u64) -> f64 {
    const ARENA: u64 = 4 << 20;
    const SLOTS: [u64; 6] = [64, 128, 256, 512, 1024, 2048];
    let world = World::new();
    let fabric = Fabric::new(world, FabricConfig::pair(), &SimRng::new(1));
    let nic = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), SimRng::new(2));
    let pd = nic.alloc_pd();
    let arena = || {
        nic.reg_mr(
            &pd,
            ARENA,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        )
    };
    let data = [0xA5u8; 2048];
    let (mut mr, mut at, mut bytes) = (arena(), 0u64, 0u64);
    let t = Instant::now();
    for i in 0..writes {
        let len = SLOTS[(i % SLOTS.len() as u64) as usize];
        if at + len > ARENA {
            (mr, at) = (arena(), 0);
        }
        mr.write(mr.addr + at, black_box(&data[..len as usize]))
            .expect("in bounds");
        at += len;
        bytes += len;
    }
    let wall = t.elapsed().as_nanos() as f64;
    wall / (bytes as f64 / 1024.0)
}
