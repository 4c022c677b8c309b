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

/// Random drops AND delays on both directions; mixed sends, writes, reads
/// and fetch-adds with real data; everything must arrive exactly once, in
/// order, intact. A fetch-add whose request or response is lost is
/// replayed like any other WR and applied once: the counter ends at the
/// sum of the operands.
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
        let src = p.b.reg_mr(
            &pdb,
            1 << 16,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        let pattern: Vec<u8> = (0..1u32 << 16).map(|k| (k % 241) as u8).collect();
        src.write(src.addr, &pattern).unwrap();
        let counter =
            p.b.reg_mr(&pdb, 8, AccessFlags::FULL, PageKind::Anonymous, true, false);
        let pda = p.a.alloc_pd();
        let sink = p.a.reg_mr(
            &pda,
            1 << 21,
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
        let mut expected_reads = Vec::new();
        let mut operands = 0u64;
        for i in 0..n {
            let op = rng.next_below(4);
            if op == 2 {
                // A read of one or two MTU fragments into its own slot.
                let (off, len) = (i * 97 % 4096, 100 + i % 7 * 1000);
                let at = sink.addr + i * 8192;
                expected_reads.push((at, off, len));
                let wr = SendWr::read(i, at, sink.lkey, len, src.addr + off, src.rkey);
                p.a.post_send(&p.qa, wr).unwrap();
            } else if op == 3 {
                operands += i + 1;
                let wr = SendWr {
                    op: xrdma_rnic::SendOp::FetchAdd(i + 1),
                    ..SendWr::read(
                        i,
                        sink.addr + i * 8192,
                        sink.lkey,
                        8,
                        counter.addr,
                        counter.rkey,
                    )
                };
                p.a.post_send(&p.qa, wr).unwrap();
            } else if op == 0 {
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

        // Every op completed successfully at the sender, exactly once.
        let send_cqes = p.cqa.poll(usize::MAX);
        let mut ids: Vec<u64> = send_cqes.iter().map(|c| c.wr_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..n).collect::<Vec<_>>(), "seed {seed}");
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
        // So did the reads, and every fetch-add was applied once.
        for &(at, off, len) in &expected_reads {
            let want = &pattern[off as usize..(off + len) as usize];
            assert_eq!(sink.read(at, len).unwrap(), want, "seed {seed}");
        }
        let cell = counter.read(counter.addr, 8).unwrap();
        assert_eq!(
            u64::from_le_bytes(cell.try_into().unwrap()),
            operands,
            "seed {seed}: the counter is the sum of the operands"
        );
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

/// One Write held back by 100 µs or lost in the first 2 µs at the
/// responder, with 12 READs or 12 FetchAdds queued behind it. Every
/// request that arrives past the gap is out of order, and the responder
/// answers the whole gap episode with one SeqError NAK: one go-back
/// replays the 13 WRs at most, and all 13 complete on an RTS QP. A NAK
/// per out-of-order READ or atomic charged the Write a retry each and
/// failed the QP with `RetryExceeded` after 72 retransmissions.
#[test]
fn one_late_write_costs_one_nak_ahead_of_reads_and_atomics() {
    let late = FaultKind::Reorder {
        prob: 1.0,
        delay_ns: 100_000,
    };
    let lost = FaultKind::Corrupt { prob: 1.0 };
    for (hold, fetch_add) in [(&late, false), (&late, true), (&lost, false), (&lost, true)] {
        let case = format!("{hold:?}, fetch_add {fetch_add}");
        let p = pair(5, 2);
        let plan = FaultPlan::new().with(FaultSpec {
            at_ns: 0,
            dur_ns: Some(2_000),
            target: FaultTarget::Node(1),
            kind: hold.clone(),
        });
        let _faults = FaultInjector::install(&p.world, plan, SimRng::new(5));
        let pdb = p.b.alloc_pd();
        let src = p.b.reg_mr(
            &pdb,
            4096,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        src.write(src.addr + 64, b"read-me!").unwrap();
        let pda = p.a.alloc_pd();
        let sink = p.a.reg_mr(
            &pda,
            4096,
            AccessFlags::FULL,
            PageKind::Anonymous,
            true,
            false,
        );
        let write = SendWr::write(0, Payload::Zero(64), src.addr, src.rkey);
        p.a.post_send(&p.qa, write).unwrap();
        for i in 1..13u64 {
            let read = SendWr::read(i, sink.addr + i * 8, sink.lkey, 8, src.addr + 64, src.rkey);
            let wr = if fetch_add {
                SendWr {
                    op: xrdma_rnic::SendOp::FetchAdd(1),
                    ..read
                }
            } else {
                read
            };
            p.a.post_send(&p.qa, wr).unwrap();
        }
        p.world.run_for(Dur::millis(200));

        let (sa, sb) = (p.a.stats(), p.b.stats());
        assert_eq!(
            sb.fault_rx_delays + sb.fault_rx_drops,
            1,
            "{case}: only the Write is held"
        );
        let cqes = p.cqa.poll(usize::MAX);
        let ok = cqes
            .iter()
            .filter(|c| c.status == CqeStatus::Success)
            .count();
        assert_eq!(
            (ok, cqes.len(), p.qa.state()),
            (13, 13, xrdma_rnic::QpState::Rts),
            "{case}: statuses {:?}, {} retransmissions",
            cqes.iter().map(|c| c.status).collect::<Vec<_>>(),
            sa.retransmissions
        );
        assert_eq!(sb.seq_naks, 1, "{case}: one NAK for the episode");
        assert!(
            sa.retransmissions <= 13,
            "{case}: {} retransmissions",
            sa.retransmissions
        );
        let cell = u64::from_le_bytes(src.read(src.addr + 64, 8).unwrap().try_into().unwrap());
        let want = u64::from_le_bytes(*b"read-me!") + if fetch_add { 12 } else { 0 };
        assert_eq!(cell, want, "{case}: each FetchAdd applied once");
    }
}

/// A Send's first fragment arriving while the Send is already being
/// reassembled, as a duplicate or as the go-back replay after its middle
/// fragment was lost, restarts the reassembly in the receive WR it
/// holds. Each used to take a fresh receive WR, and the one it held was
/// consumed without a completion: one CQE, two receive WRs gone.
#[test]
fn replayed_first_fragment_keeps_its_receive_wr() {
    // (fault, its window in ns, Send length): the 6 000 B Send's first
    // fragment lands in [0, 4.5 µs), the 10 000 B Send's second in
    // [5, 6 µs).
    let cases = [
        (FaultKind::Duplicate { prob: 1.0 }, 0, 4_500, 6_000),
        (FaultKind::Corrupt { prob: 1.0 }, 5_000, 1_000, 10_000),
    ];
    for (kind, at_ns, dur_ns, len) in cases {
        let p = pair(5, 2);
        let plan = FaultPlan::new().with(FaultSpec {
            at_ns,
            dur_ns: Some(dur_ns),
            target: FaultTarget::Node(1),
            kind: kind.clone(),
        });
        let _faults = FaultInjector::install(&p.world, plan, SimRng::new(5));
        for i in 0..4 {
            p.qb.post_recv(RecvWr::new(i, 0, 16_384, 0)).unwrap();
        }
        p.a.post_send(&p.qa, SendWr::send(1, Payload::Zero(len)))
            .unwrap();
        p.world.run_for(Dur::millis(200));
        let sb = p.b.stats();
        assert_eq!(
            sb.fault_rx_dups + sb.fault_rx_drops,
            1,
            "{kind:?}: one fragment hit"
        );
        let recvs: Vec<_> = p
            .cqb
            .poll(usize::MAX)
            .iter()
            .map(|c| (c.wr_id, c.status))
            .collect();
        assert_eq!(recvs, [(0, CqeStatus::Success)], "{kind:?}");
        assert_eq!(
            p.qb.recv_queue_len(),
            3,
            "{kind:?}: one receive WR consumed"
        );
        assert_eq!(p.cqa.poll_one().map(|c| c.status), Some(CqeStatus::Success));
    }
}

/// A lost middle fragment costs one NAK round trip, not a timeout: the
/// 10 000 B Send's third fragment arrives past the reassembly at the
/// expected seq, which opens a gap episode with one SeqError NAK, and the
/// requester's go-back replays the Send well inside the 2 ms
/// `retx_timeout`. A silent discard left the Send waiting for the timer.
#[test]
fn in_message_gap_costs_one_nak_round_trip() {
    let p = pair(5, 2);
    // The Send's second fragment lands in [5, 6 µs).
    let plan = FaultPlan::new().with(FaultSpec {
        at_ns: 5_000,
        dur_ns: Some(1_000),
        target: FaultTarget::Node(1),
        kind: FaultKind::Corrupt { prob: 1.0 },
    });
    let _faults = FaultInjector::install(&p.world, plan, SimRng::new(5));
    p.qb.post_recv(RecvWr::new(0, 0, 16_384, 0)).unwrap();
    p.a.post_send(&p.qa, SendWr::send(1, Payload::Zero(10_000)))
        .unwrap();
    p.world.run_for(Dur::millis(1));
    let (sa, sb) = (p.a.stats(), p.b.stats());
    assert_eq!(sb.fault_rx_drops, 1, "one fragment lost");
    assert_eq!(
        p.cqa.poll_one().map(|c| c.status),
        Some(CqeStatus::Success),
        "completes within 1 ms; {} NAKs, {} retransmissions",
        sb.seq_naks,
        sa.retransmissions
    );
    assert_eq!(sb.seq_naks, 1, "one NAK for the episode");
    assert_eq!(
        p.cqb
            .poll(usize::MAX)
            .iter()
            .map(|c| c.wr_id)
            .collect::<Vec<_>>(),
        [0]
    );
}
