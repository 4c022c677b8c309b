//! End-to-end tests of the RNIC engine over the simulated fabric: every
//! verb, the reliability machinery, and the congestion-control loop.

use std::rc::Rc;

use bytes::Bytes;
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::cq::CqeOpcode;
use xrdma_rnic::verbs::Payload;
use xrdma_rnic::{
    AccessFlags, CompletionQueue, CqeStatus, PageKind, Qp, QpCaps, RecvWr, Rnic, RnicConfig, SendWr,
};
use xrdma_sim::{Dur, SimRng, World};

struct Pair {
    world: Rc<World>,
    #[allow(dead_code)]
    fabric: Rc<Fabric>,
    a: Rc<Rnic>,
    b: Rc<Rnic>,
    qa: Rc<Qp>,
    qb: Rc<Qp>,
    cqa: Rc<CompletionQueue>,
    cqb: Rc<CompletionQueue>,
}

fn pair_with(cfg: RnicConfig) -> Pair {
    let world = World::new();
    let rng = SimRng::new(7);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let a = Rnic::new(&fabric, NodeId(0), cfg.clone(), rng.fork("a"));
    let b = Rnic::new(&fabric, NodeId(1), cfg, rng.fork("b"));
    let pda = a.alloc_pd();
    let pdb = b.alloc_pd();
    let cqa = a.create_cq(4096);
    let cqb = b.create_cq(4096);
    let qa = a.create_qp(&pda, cqa.clone(), cqa.clone(), QpCaps::default(), None);
    let qb = b.create_qp(&pdb, cqb.clone(), cqb.clone(), QpCaps::default(), None);
    Rnic::connect_pair(&a, &qa, &b, &qb).expect("fresh QPs wire cleanly");
    Pair {
        world,
        fabric,
        a,
        b,
        qa,
        qb,
        cqa,
        cqb,
    }
}

fn pair() -> Pair {
    pair_with(RnicConfig::default())
}

#[test]
fn send_recv_roundtrip_with_integrity() {
    let p = pair();
    let pdb = p.b.alloc_pd();
    let rbuf = p.b.reg_mr(
        &pdb,
        4096,
        AccessFlags::FULL,
        PageKind::Anonymous,
        true,
        false,
    );
    p.qb.post_recv(RecvWr::new(77, rbuf.addr, rbuf.len, rbuf.lkey))
        .unwrap();
    p.a.post_send(
        &p.qa,
        SendWr::send_imm(5, Payload::Inline(Bytes::from_static(b"payload!")), 0xBEEF),
    )
    .unwrap();
    p.world.run();
    // Receiver got the data + imm.
    let cqe = p.cqb.poll_one().expect("recv completion");
    assert_eq!(cqe.wr_id, 77);
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(cqe.opcode, CqeOpcode::Recv);
    assert_eq!(cqe.byte_len, 8);
    assert_eq!(cqe.imm, Some(0xBEEF));
    assert_eq!(rbuf.read(rbuf.addr, 8).unwrap(), b"payload!");
    // Sender completion on ACK.
    let cqe = p.cqa.poll_one().expect("send completion");
    assert_eq!(cqe.wr_id, 5);
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(cqe.opcode, CqeOpcode::Send);
}

#[test]
fn small_send_latency_is_microseconds() {
    let p = pair();
    p.qb.post_recv(RecvWr::new(1, 0, 1 << 20, 0)).unwrap();
    let arrived = Rc::new(std::cell::Cell::new(0u64));
    let a2 = arrived.clone();
    let w2 = p.world.clone();
    p.cqb.set_notify(move || a2.set(w2.now().nanos()));
    p.cqb.req_notify();
    p.a.post_send(&p.qa, SendWr::send(1, Payload::Zero(64)))
        .unwrap();
    p.world.run();
    assert_eq!(p.cqb.len(), 1);
    // One-way small message on the calibrated fabric: a few microseconds.
    let us = arrived.get() as f64 / 1000.0;
    assert!((1.0..10.0).contains(&us), "one-way took {us} µs");
}

#[test]
fn write_places_bytes_remotely_without_consuming_rqe() {
    let p = pair();
    let pdb = p.b.alloc_pd();
    let target = p.b.reg_mr(
        &pdb,
        8192,
        AccessFlags::FULL,
        PageKind::Anonymous,
        true,
        false,
    );
    p.a.post_send(
        &p.qa,
        SendWr::write(
            3,
            Payload::Inline(Bytes::from_static(b"remote-write")),
            target.addr + 100,
            target.rkey,
        ),
    )
    .unwrap();
    p.world.run();
    assert_eq!(target.read(target.addr + 100, 12).unwrap(), b"remote-write");
    assert_eq!(p.cqb.len(), 0, "one-sided: no receiver CQE");
    let cqe = p.cqa.poll_one().unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(cqe.opcode, CqeOpcode::Write);
}

#[test]
fn write_imm_consumes_rqe_and_notifies() {
    let p = pair();
    let pdb = p.b.alloc_pd();
    let target = p.b.reg_mr(
        &pdb,
        4096,
        AccessFlags::FULL,
        PageKind::Anonymous,
        true,
        false,
    );
    p.qb.post_recv(RecvWr::new(9, 0, 0, 0)).unwrap();
    p.a.post_send(
        &p.qa,
        SendWr::write_imm(
            4,
            Payload::Inline(Bytes::from_static(b"imm")),
            target.addr,
            target.rkey,
            42,
        ),
    )
    .unwrap();
    p.world.run();
    let cqe = p.cqb.poll_one().unwrap();
    assert_eq!(cqe.wr_id, 9);
    assert_eq!(cqe.opcode, CqeOpcode::RecvWriteImm);
    assert_eq!(cqe.imm, Some(42));
    assert_eq!(target.read(target.addr, 3).unwrap(), b"imm");
}

#[test]
fn read_fetches_remote_bytes() {
    let p = pair();
    let pdb = p.b.alloc_pd();
    let src = p.b.reg_mr(
        &pdb,
        4096,
        AccessFlags::FULL,
        PageKind::Anonymous,
        true,
        false,
    );
    src.write(src.addr, b"read-me-please").unwrap();
    let pda = p.a.alloc_pd();
    let dst = p.a.reg_mr(
        &pda,
        4096,
        AccessFlags::FULL,
        PageKind::Anonymous,
        true,
        false,
    );
    p.a.post_send(
        &p.qa,
        SendWr::read(11, dst.addr, dst.lkey, 14, src.addr, src.rkey),
    )
    .unwrap();
    p.world.run();
    let cqe = p.cqa.poll_one().unwrap();
    assert_eq!(cqe.wr_id, 11);
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(cqe.opcode, CqeOpcode::Read);
    assert_eq!(cqe.byte_len, 14);
    assert_eq!(dst.read(dst.addr, 14).unwrap(), b"read-me-please");
}

#[test]
fn large_message_segments_and_reassembles() {
    let mut cfg = RnicConfig::default();
    cfg.mtu = 4096;
    let p = pair_with(cfg);
    let len = 128 * 1024u64;
    let arrived = Rc::new(std::cell::Cell::new(0u64));
    let a2 = arrived.clone();
    let w2 = p.world.clone();
    p.cqb.set_notify(move || a2.set(w2.now().nanos()));
    p.cqb.req_notify();
    p.qb.post_recv(RecvWr::new(1, 0, len, 0)).unwrap();
    p.a.post_send(&p.qa, SendWr::send(1, Payload::Zero(len)))
        .unwrap();
    p.world.run();
    let cqe = p.cqb.poll_one().unwrap();
    assert_eq!(cqe.byte_len, len);
    let st = p.a.stats();
    assert_eq!(st.data_pkts_tx, 32, "128K / 4K MTU");
    // Wire time at 25 Gb/s for 128 KiB ≈ 42 µs; total must be in range.
    let us = arrived.get() as f64 / 1000.0;
    assert!((42.0..120.0).contains(&us), "took {us} µs");
}

#[test]
fn rnr_nak_then_retry_succeeds() {
    let p = pair();
    // No receive posted: first attempt RNR-NAKs, sender backs off.
    p.a.post_send(&p.qa, SendWr::send(1, Payload::Zero(64)))
        .unwrap();
    p.world.run_for(Dur::micros(50));
    assert!(p.b.stats().rnr_naks_sent >= 1, "responder NAKed");
    assert!(p.cqb.is_empty());
    // Post the receive during backoff; the retry lands.
    p.qb.post_recv(RecvWr::new(1, 0, 1024, 0)).unwrap();
    p.world.run();
    assert_eq!(p.cqb.len(), 1, "delivered after retry");
    assert_eq!(p.cqa.poll_one().unwrap().status, CqeStatus::Success);
    assert!(p.qa.rnr_events.get() >= 1, "requester counted RNR");
    assert!(p.a.stats().rnr_naks_received >= 1);
}

#[test]
fn rnr_retries_exhaust_to_qp_error() {
    let mut cfg = RnicConfig::default();
    cfg.retry_count = 3;
    cfg.rnr_timer = Dur::micros(50);
    let p = pair_with(cfg);
    p.a.post_send(&p.qa, SendWr::send(1, Payload::Zero(64)))
        .unwrap();
    p.world.run_for(Dur::millis(20));
    let cqe = p.cqa.poll_one().expect("error completion");
    assert_eq!(cqe.status, CqeStatus::RnrRetryExceeded);
    assert_eq!(p.qa.state(), xrdma_rnic::QpState::Error);
}

#[test]
fn peer_crash_detected_by_retry_timeout() {
    let mut cfg = RnicConfig::default();
    cfg.retry_count = 2;
    cfg.retx_timeout = Dur::millis(1);
    let p = pair_with(cfg);
    p.b.crash();
    // Zero-byte write probe — exactly the keepalive pattern (§V-A).
    p.a.post_send(
        &p.qa,
        SendWr {
            wr_id: 99,
            op: xrdma_rnic::SendOp::Write,
            payload: Payload::Zero(0),
            remote: None,
            imm: None,
            local: None,
            signaled: true,
            span: xrdma_rnic::SpanToken::NONE,
        },
    )
    .unwrap();
    p.world.run_for(Dur::millis(50));
    let cqe = p.cqa.poll_one().expect("probe must fail");
    assert_eq!(cqe.wr_id, 99);
    assert_eq!(cqe.status, CqeStatus::RetryExceeded);
    assert_eq!(p.qa.state(), xrdma_rnic::QpState::Error);
}

/// A local gather failure completes the failing WR with
/// `RemoteAccessError`, then flushes what is in flight in WR order: a Read
/// and a Write are on the wire to a crashed peer when a Send whose lkey
/// names no MR fails.
#[test]
fn local_failure_flushes_in_wr_order() {
    let p = pair();
    p.b.crash();
    p.a.post_send(&p.qa, SendWr::read(1, 0, 0, 64, 0, 0))
        .unwrap();
    p.a.post_send(&p.qa, SendWr::write(2, Payload::Zero(64), 0, 0))
        .unwrap();
    let bad = Payload::FromMr {
        addr: 0,
        len: 64,
        lkey: 999,
    };
    p.a.post_send(&p.qa, SendWr::send(3, bad)).unwrap();
    p.world.run_for(Dur::millis(1));
    let got: Vec<_> = p
        .cqa
        .poll(usize::MAX)
        .iter()
        .map(|c| (c.wr_id, c.status))
        .collect();
    assert_eq!(
        got,
        [
            (3, CqeStatus::RemoteAccessError),
            (1, CqeStatus::WrFlushError),
            (2, CqeStatus::WrFlushError),
        ]
    );
    assert_eq!(p.qa.state(), xrdma_rnic::QpState::Error);
}

#[test]
fn zero_byte_probe_acked_when_alive() {
    let p = pair();
    p.a.post_send(
        &p.qa,
        SendWr {
            wr_id: 42,
            op: xrdma_rnic::SendOp::Write,
            payload: Payload::Zero(0),
            remote: None,
            imm: None,
            local: None,
            signaled: true,
            span: xrdma_rnic::SpanToken::NONE,
        },
    )
    .unwrap();
    p.world.run();
    let cqe = p.cqa.poll_one().unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    // The probe consumed no receive WR and produced no receiver CQE.
    assert!(p.cqb.is_empty());
}

#[test]
fn remote_access_violation_fails_wr_and_qp() {
    let p = pair();
    let pdb = p.b.alloc_pd();
    // Remote-read-only region: writing into it must be rejected.
    let ro = p.b.reg_mr(
        &pdb,
        4096,
        AccessFlags::REMOTE_READ,
        PageKind::Anonymous,
        true,
        false,
    );
    p.a.post_send(
        &p.qa,
        SendWr::write(
            1,
            Payload::Inline(Bytes::from_static(b"nope")),
            ro.addr,
            ro.rkey,
        ),
    )
    .unwrap();
    p.world.run();
    let cqe = p.cqa.poll_one().expect("error completion");
    assert_eq!(cqe.status, CqeStatus::RemoteAccessError);
    assert_eq!(p.qa.state(), xrdma_rnic::QpState::Error);
    assert_eq!(ro.read(ro.addr, 4).unwrap(), vec![0; 4], "memory untouched");
}

#[test]
fn atomics_fetch_add_and_cas() {
    let p = pair();
    let pdb = p.b.alloc_pd();
    let cell =
        p.b.reg_mr(&pdb, 8, AccessFlags::FULL, PageKind::Anonymous, true, false);
    let pda = p.a.alloc_pd();
    let sink =
        p.a.reg_mr(&pda, 8, AccessFlags::FULL, PageKind::Anonymous, true, false);
    // fetch_add(7)
    p.a.post_send(
        &p.qa,
        SendWr {
            wr_id: 1,
            op: xrdma_rnic::SendOp::FetchAdd(7),
            payload: Payload::Zero(8),
            remote: Some((cell.addr, cell.rkey)),
            imm: None,
            local: Some((sink.addr, sink.lkey)),
            signaled: true,
            span: xrdma_rnic::SpanToken::NONE,
        },
    )
    .unwrap();
    p.world.run();
    let cqe = p.cqa.poll_one().unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(cqe.opcode, CqeOpcode::Atomic);
    assert_eq!(
        u64::from_le_bytes(sink.read(sink.addr, 8).unwrap().try_into().unwrap()),
        0,
        "old value"
    );
    assert_eq!(
        u64::from_le_bytes(cell.read(cell.addr, 8).unwrap().try_into().unwrap()),
        7
    );
    // CAS(7 -> 100)
    p.a.post_send(
        &p.qa,
        SendWr {
            wr_id: 2,
            op: xrdma_rnic::SendOp::CompareSwap {
                expect: 7,
                swap: 100,
            },
            payload: Payload::Zero(8),
            remote: Some((cell.addr, cell.rkey)),
            imm: None,
            local: Some((sink.addr, sink.lkey)),
            signaled: true,
            span: xrdma_rnic::SpanToken::NONE,
        },
    )
    .unwrap();
    p.world.run();
    assert_eq!(p.cqa.poll_one().unwrap().status, CqeStatus::Success);
    assert_eq!(
        u64::from_le_bytes(cell.read(cell.addr, 8).unwrap().try_into().unwrap()),
        100
    );
}

#[test]
fn unsignaled_sends_skip_success_cqe() {
    let p = pair();
    for i in 0..4 {
        p.qb.post_recv(RecvWr::new(i, 0, 1024, 0)).unwrap();
    }
    for i in 0..3 {
        p.a.post_send(&p.qa, SendWr::send(i, Payload::Zero(32)).unsignaled())
            .unwrap();
    }
    p.a.post_send(&p.qa, SendWr::send(3, Payload::Zero(32)))
        .unwrap();
    p.world.run();
    assert_eq!(p.cqb.len(), 4, "receiver sees all");
    assert_eq!(p.cqa.len(), 1, "only the signaled send completes");
    assert_eq!(p.cqa.poll_one().unwrap().wr_id, 3);
}

#[test]
fn pipeline_of_many_messages_stays_ordered() {
    let p = pair();
    let pdb = p.b.alloc_pd();
    let rbuf = p.b.reg_mr(
        &pdb,
        1 << 20,
        AccessFlags::FULL,
        PageKind::Anonymous,
        true,
        false,
    );
    for i in 0..200u64 {
        p.qb.post_recv(RecvWr::new(i, rbuf.addr + i * 4, 4, rbuf.lkey))
            .unwrap();
    }
    for i in 0..200u64 {
        p.a.post_send(
            &p.qa,
            SendWr::send(
                i,
                Payload::Inline(Bytes::from((i as u32).to_le_bytes().to_vec())),
            ),
        )
        .unwrap();
    }
    p.world.run();
    let cqes = p.cqb.poll(500);
    assert_eq!(cqes.len(), 200);
    for (i, c) in cqes.iter().enumerate() {
        assert_eq!(c.wr_id, i as u64, "in-order delivery");
    }
    // Data integrity for a few spot checks.
    for i in [0u64, 57, 199] {
        let v = rbuf.read(rbuf.addr + i * 4, 4).unwrap();
        assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), i as u32);
    }
    assert_eq!(p.cqa.len(), 200);
}

#[test]
fn incast_triggers_cnps_and_rate_cut() {
    // 8 senders blast one receiver with large writes; ECN marks must come
    // back as CNPs and cut sender rates below line rate.
    let world = World::new();
    let rng = SimRng::new(11);
    let mut fcfg = FabricConfig::rack(9);
    fcfg.ecn.kmin_bytes = 16 * 1024;
    fcfg.ecn.kmax_bytes = 128 * 1024;
    let fabric = Fabric::new(world.clone(), fcfg, &rng);
    let sink_nic = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("sink"));
    let pd0 = sink_nic.alloc_pd();
    let target = sink_nic.reg_mr(
        &pd0,
        1 << 20,
        AccessFlags::FULL,
        PageKind::Anonymous,
        false,
        false,
    );
    let mut senders = Vec::new();
    for i in 1..9u32 {
        let nic = Rnic::new(
            &fabric,
            NodeId(i),
            RnicConfig::default(),
            rng.fork(&format!("s{i}")),
        );
        let pd = nic.alloc_pd();
        let cq = nic.create_cq(8192);
        let qp = nic.create_qp(&pd, cq.clone(), cq.clone(), QpCaps::default(), None);
        let cq0 = sink_nic.create_cq(8192);
        let qp0 = sink_nic.create_qp(&pd0, cq0.clone(), cq0, QpCaps::default(), None);
        Rnic::connect_pair(&nic, &qp, &sink_nic, &qp0).expect("fresh QPs wire cleanly");
        senders.push((nic, qp));
    }
    for (nic, qp) in &senders {
        for w in 0..40u64 {
            nic.post_send(
                qp,
                SendWr::write(w, Payload::Zero(256 * 1024), target.addr, target.rkey),
            )
            .unwrap();
        }
    }
    world.run_for(Dur::millis(50));
    let marks = fabric.stats().snapshot().ecn_marked;
    assert!(marks > 0, "incast must mark ECN");
    let total_cnps: u64 = senders.iter().map(|(n, _)| n.stats().cnps_received).sum();
    assert!(total_cnps > 0, "senders must receive CNPs");
    let min_rate = senders
        .iter()
        .map(|(_, q)| q.current_rate_gbps())
        .fold(f64::INFINITY, f64::min);
    assert!(min_rate < 25.0, "some sender must have been rate-cut");
}

#[test]
fn deterministic_replay() {
    let run = |seed| {
        let world = World::new();
        let rng = SimRng::new(seed);
        let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
        let a = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("a"));
        let b = Rnic::new(&fabric, NodeId(1), RnicConfig::default(), rng.fork("b"));
        let pda = a.alloc_pd();
        let pdb = b.alloc_pd();
        let cqa = a.create_cq(1024);
        let cqb = b.create_cq(1024);
        let qa = a.create_qp(&pda, cqa.clone(), cqa.clone(), QpCaps::default(), None);
        let qb = b.create_qp(&pdb, cqb.clone(), cqb.clone(), QpCaps::default(), None);
        Rnic::connect_pair(&a, &qa, &b, &qb).expect("fresh QPs wire cleanly");
        for i in 0..64u64 {
            qb.post_recv(RecvWr::new(i, 0, 1 << 16, 0)).unwrap();
            a.post_send(&qa, SendWr::send(i, Payload::Zero(1000 + i * 13)))
                .unwrap();
        }
        world.run();
        (world.now().nanos(), world.events_executed())
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3).0, 0);
}

#[test]
fn qp_reset_reuse_data_path() {
    // After reset + reconnect (the QP-cache flow) the QP must work again.
    let p = pair();
    p.qb.post_recv(RecvWr::new(1, 0, 64, 0)).unwrap();
    p.a.post_send(&p.qa, SendWr::send(1, Payload::Zero(16)))
        .unwrap();
    p.world.run();
    assert_eq!(p.cqb.len(), 1);
    p.qa.modify_to_reset();
    p.qb.modify_to_reset();
    Rnic::connect_pair(&p.a, &p.qa, &p.b, &p.qb).expect("fresh QPs wire cleanly");
    p.qb.post_recv(RecvWr::new(2, 0, 64, 0)).unwrap();
    p.a.post_send(&p.qa, SendWr::send(2, Payload::Zero(16)))
        .unwrap();
    p.world.run();
    assert_eq!(p.cqb.poll(10).last().unwrap().wr_id, 2);
}

#[test]
fn cq_notification_fires_on_arrival() {
    let p = pair();
    let fired = Rc::new(std::cell::Cell::new(false));
    let f = fired.clone();
    p.cqb.set_notify(move || f.set(true));
    p.cqb.req_notify();
    p.qb.post_recv(RecvWr::new(1, 0, 64, 0)).unwrap();
    p.a.post_send(&p.qa, SendWr::send(1, Payload::Zero(8)))
        .unwrap();
    p.world.run();
    assert!(fired.get());
}

#[test]
fn srq_feeds_multiple_qps_and_rnr_when_empty() {
    let world = World::new();
    let rng = SimRng::new(13);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(3), &rng);
    let server = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("sv"));
    let pd = server.alloc_pd();
    let srq = server.create_srq(16);
    let scq = server.create_cq(1024);
    let mut clients = Vec::new();
    for i in 1..3u32 {
        let nic = Rnic::new(
            &fabric,
            NodeId(i),
            RnicConfig::default(),
            rng.fork(&format!("c{i}")),
        );
        let cpd = nic.alloc_pd();
        let ccq = nic.create_cq(1024);
        let cqp = nic.create_qp(&cpd, ccq.clone(), ccq.clone(), QpCaps::default(), None);
        let sqp = server.create_qp(
            &pd,
            scq.clone(),
            scq.clone(),
            QpCaps::default(),
            Some(srq.clone()),
        );
        Rnic::connect_pair(&nic, &cqp, &server, &sqp).expect("fresh QPs wire cleanly");
        clients.push((nic, cqp));
    }
    // 4 receives in the shared pool; both clients send 2 each — all land.
    for i in 0..4 {
        srq.post(RecvWr::new(i, 0, 4096, 0)).unwrap();
    }
    for (nic, qp) in &clients {
        for i in 0..2u64 {
            nic.post_send(qp, SendWr::send(i, Payload::Zero(64)))
                .unwrap();
        }
    }
    world.run();
    assert_eq!(scq.len(), 4);
    assert_eq!(server.stats().rnr_naks_sent, 0);
    // Now exhaust the SRQ: further sends must RNR until replenished.
    let (nic, qp) = &clients[0];
    nic.post_send(qp, SendWr::send(9, Payload::Zero(64)))
        .unwrap();
    world.run_for(Dur::micros(100));
    assert!(server.stats().rnr_naks_sent > 0, "SRQ empty → RNR");
    srq.post(RecvWr::new(9, 0, 4096, 0)).unwrap();
    world.run_for(Dur::millis(5));
    assert_eq!(scq.len(), 5, "retry lands after replenish");
}
