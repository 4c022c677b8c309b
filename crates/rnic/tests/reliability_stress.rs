//! Reliability stress: randomized loss/delay at the packet level, random
//! operation mixes, and the invariants that must survive them — exactly
//! once, in order, no stuck QPs, PFC accounting conserved.

use std::rc::Rc;

use bytes::Bytes;
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTarget, FaultsGuard};
use xrdma_rnic::verbs::Payload;
use xrdma_rnic::{
    AccessFlags, CompletionQueue, CqeStatus, PageKind, Qp, QpCaps, RecvWr, Rnic, RnicConfig, SendWr,
};
use xrdma_sim::{Dur, SimRng, World};

struct Pair {
    world: Rc<World>,
    a: Rc<Rnic>,
    b: Rc<Rnic>,
    qa: Rc<Qp>,
    qb: Rc<Qp>,
    cqa: Rc<CompletionQueue>,
    cqb: Rc<CompletionQueue>,
}

fn pair(seed: u64, retx_ms: u64) -> Pair {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let mut cfg = RnicConfig::default();
    cfg.retx_timeout = Dur::millis(retx_ms);
    let a = Rnic::new(&fabric, NodeId(0), cfg.clone(), rng.fork("a"));
    let b = Rnic::new(&fabric, NodeId(1), cfg, rng.fork("b"));
    let pda = a.alloc_pd();
    let pdb = b.alloc_pd();
    let cqa = a.create_cq(1 << 16);
    let cqb = b.create_cq(1 << 16);
    let caps = QpCaps {
        max_send_wr: 1 << 14,
        max_recv_wr: 1 << 12,
    };
    let qa = a.create_qp(&pda, cqa.clone(), cqa.clone(), caps, None);
    let qb = b.create_qp(&pdb, cqb.clone(), cqb.clone(), caps, None);
    Rnic::connect_pair(&a, &qa, &b, &qb).expect("fresh QPs wire cleanly");
    Pair {
        world,
        a,
        b,
        qa,
        qb,
        cqa,
        cqb,
    }
}

/// Install receive-side noise for the whole run: each `(node, kind)` is an
/// open-ended node spec.
fn noise(world: &Rc<World>, seed: u64, specs: &[(u32, FaultKind)]) -> FaultsGuard {
    let mut plan = FaultPlan::new();
    for (node, kind) in specs {
        plan = plan.with(FaultSpec {
            at_ns: 0,
            dur_ns: None,
            target: FaultTarget::Node(*node),
            kind: kind.clone(),
        });
    }
    FaultInjector::install(world, plan, SimRng::new(seed))
}

/// Random drops AND delays on both directions; mixed sends and writes with
/// real data; everything must arrive exactly once, in order, intact.
#[test]
fn loss_and_reorder_noise_mixed_ops_exactly_once() {
    for seed in [1u64, 2, 3] {
        let p = pair(seed, 2);
        // Drop 5 % and hold back another ~5 % (by 40 or 400 µs) of what
        // arrives at either NIC.
        let _noise = noise(
            &p.world,
            seed * 7 + 1,
            &[0, 1]
                .map(|n| {
                    [
                        (n, FaultKind::Corrupt { prob: 0.05 }),
                        (
                            n,
                            FaultKind::Reorder {
                                prob: 0.025,
                                delay_ns: 40_000,
                            },
                        ),
                        (
                            n,
                            FaultKind::Reorder {
                                prob: 0.025,
                                delay_ns: 400_000,
                            },
                        ),
                    ]
                })
                .concat(),
        );

        let pdb = p.b.alloc_pd();
        let target = p.b.reg_mr(
            &pdb,
            1 << 20,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        let recv_buf = p.b.reg_mr(
            &pdb,
            1 << 20,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        let n = 150u64;
        for i in 0..n {
            p.qb.post_recv(RecvWr::new(i, recv_buf.addr + i * 64, 64, recv_buf.lkey))
                .unwrap();
        }
        let mut rng = SimRng::new(seed ^ 0xABC);
        let mut expected_writes = Vec::new();
        for i in 0..n {
            if rng.chance(0.5) {
                // Send with a distinctive byte pattern.
                let data = vec![(i % 251) as u8; 48];
                p.a.post_send(&p.qa, SendWr::send(i, Payload::Inline(Bytes::from(data))))
                    .unwrap();
            } else {
                let data = vec![(i % 249) as u8; 32];
                expected_writes.push((target.addr + i * 40, data.clone()));
                p.a.post_send(
                    &p.qa,
                    SendWr::write(
                        i,
                        Payload::Inline(Bytes::from(data)),
                        target.addr + i * 40,
                        target.rkey,
                    ),
                )
                .unwrap();
            }
        }
        p.world.run_for(Dur::secs(20));

        // Every op completed successfully at the sender.
        let send_cqes = p.cqa.poll(usize::MAX);
        assert_eq!(send_cqes.len() as u64, n, "seed {seed}");
        assert!(send_cqes.iter().all(|c| c.status == CqeStatus::Success));
        // Receives arrived in order, exactly once.
        let recv_cqes = p.cqb.poll(usize::MAX);
        let mut last = None;
        for c in &recv_cqes {
            assert_eq!(c.status, CqeStatus::Success);
            if let Some(prev) = last {
                assert!(c.wr_id > prev, "in order");
            }
            last = Some(c.wr_id);
        }
        // Writes landed intact despite retransmissions.
        for (addr, data) in &expected_writes {
            assert_eq!(&target.read(*addr, data.len() as u64).unwrap(), data);
        }
        // The noise actually fired.
        assert!(
            p.a.stats().fault_rx_drops + p.b.stats().fault_rx_drops > 0,
            "drops happened"
        );
        assert!(p.a.stats().retransmissions > 0, "recovery happened");
        assert_eq!(p.qa.state(), xrdma_rnic::QpState::Rts, "QP survived");
    }
}

/// Reads under the same noise: data integrity end to end.
#[test]
fn reads_survive_loss() {
    let p = pair(9, 2);
    let _noise = noise(&p.world, 99, &[(1, FaultKind::Corrupt { prob: 0.08 })]);
    let pdb = p.b.alloc_pd();
    let src = p.b.reg_mr(
        &pdb,
        1 << 20,
        AccessFlags::FULL,
        PageKind::Anonymous,
        true,
        false,
    );
    let pda = p.a.alloc_pd();
    let dst = p.a.reg_mr(
        &pda,
        1 << 20,
        AccessFlags::FULL,
        PageKind::Anonymous,
        true,
        false,
    );
    let payload: Vec<u8> = (0..200_000).map(|i| (i % 233) as u8).collect();
    src.write(src.addr, &payload).unwrap();
    p.a.post_send(
        &p.qa,
        SendWr::read(
            1,
            dst.addr,
            dst.lkey,
            payload.len() as u64,
            src.addr,
            src.rkey,
        ),
    )
    .unwrap();
    p.world.run_for(Dur::secs(20));
    let cqe = p.cqa.poll_one().expect("read completed");
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(
        dst.read(dst.addr, payload.len() as u64).unwrap(),
        payload,
        "bytes intact across retransmitted read"
    );
}

/// PFC conservation: after any incast drains, every pause has a matching
/// resume and no port stays paused.
#[test]
fn pfc_pause_resume_conservation() {
    for seed in [11u64, 12, 13] {
        let world = World::new();
        let rng = SimRng::new(seed);
        let mut fcfg = FabricConfig::rack(13);
        fcfg.pfc.xoff_bytes = 64 * 1024;
        fcfg.pfc.xon_bytes = 32 * 1024;
        let fabric = Fabric::new(world.clone(), fcfg, &rng);
        let sink = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("sink"));
        let pd = sink.alloc_pd();
        let target = sink.reg_mr(
            &pd,
            1 << 20,
            AccessFlags::FULL,
            PageKind::Anonymous,
            false,
            false,
        );
        let mut senders = Vec::new();
        for i in 1..13u32 {
            let nic = Rnic::new(
                &fabric,
                NodeId(i),
                RnicConfig::default(),
                rng.fork(&format!("s{i}")),
            );
            let spd = nic.alloc_pd();
            let cq = nic.create_cq(1 << 14);
            let qp = nic.create_qp(&spd, cq.clone(), cq, QpCaps::default(), None);
            let scq = sink.create_cq(1 << 14);
            let sqp = sink.create_qp(&pd, scq.clone(), scq, QpCaps::default(), None);
            Rnic::connect_pair(&nic, &qp, &sink, &sqp).expect("fresh QPs wire cleanly");
            for w in 0..20u64 {
                nic.post_send(
                    &qp,
                    SendWr::write(w, Payload::Zero(128 * 1024), target.addr, target.rkey),
                )
                .unwrap();
            }
            senders.push(nic);
        }
        world.run_for(Dur::secs(5));
        let c = fabric.stats().snapshot();
        assert_eq!(
            c.pause_frames, c.resume_frames,
            "seed {seed}: every XOFF resumed"
        );
        assert_eq!(c.drops, 0, "lossless class stayed lossless");
        for i in 1..13u32 {
            assert!(
                !fabric.host_port(NodeId(i)).is_paused(3),
                "seed {seed}: no port left paused"
            );
        }
        assert_eq!(fabric.buffered_bytes(), 0, "all queues drained");
    }
}

/// The QP context cache behaves as an LRU: hit rate is perfect within
/// capacity and degrades beyond it.
#[test]
fn qp_cache_hit_rates() {
    let run = |n_qps: u32| -> f64 {
        let world = World::new();
        let rng = SimRng::new(5);
        let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
        let mut cfg = RnicConfig::default();
        cfg.qp_cache_entries = 128;
        let a = Rnic::new(&fabric, NodeId(0), cfg.clone(), rng.fork("a"));
        let b = Rnic::new(&fabric, NodeId(1), cfg, rng.fork("b"));
        let pda = a.alloc_pd();
        let pdb = b.alloc_pd();
        let cqa = a.create_cq(1 << 14);
        let cqb = b.create_cq(1 << 14);
        let caps = QpCaps {
            max_send_wr: 64,
            max_recv_wr: 32,
        };
        let mut qps = Vec::new();
        for _ in 0..n_qps {
            let qa = a.create_qp(&pda, cqa.clone(), cqa.clone(), caps, None);
            let qb = b.create_qp(&pdb, cqb.clone(), cqb.clone(), caps, None);
            Rnic::connect_pair(&a, &qa, &b, &qb).expect("fresh QPs wire cleanly");
            for i in 0..4 {
                qb.post_recv(RecvWr::new(i, 0, 4096, 0)).unwrap();
            }
            qps.push((qa, qb));
        }
        // The first pass cold-misses; enough later passes amortize it out
        // of the aggregate rate.
        for round in 0..16 {
            for (qa, qb) in &qps {
                let _ = qb.post_recv(RecvWr::new(99, 0, 4096, 0));
                a.post_send(qa, SendWr::send(round, Payload::Zero(32)).unsignaled())
                    .unwrap();
            }
            world.run_for(Dur::millis(20));
        }
        let st = a.stats();
        st.qp_cache_hits as f64 / (st.qp_cache_hits + st.qp_cache_misses) as f64
    };
    let small = run(32); // well under the 128-entry cache
    let large = run(512); // 4x over
    assert!(small > 0.9, "small working set hits: {small}");
    assert!(large < 0.3, "thrashing working set misses: {large}");
}
