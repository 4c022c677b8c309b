//! §VII-F "Pay attention to SRQ": a shared receive queue saves receive
//! memory across many QPs but violates the RNR-free design — under bursts
//! it runs dry and causes RNR retries (jitter). X-RDMA supports SRQ but
//! ships it disabled.

use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::verbs::Payload;
use xrdma_rnic::{QpCaps, RecvWr, Rnic, RnicConfig, SendWr, Srq};
use xrdma_sim::{Dur, SimRng, World};

use crate::Report;
use std::rc::Rc;

struct Outcome {
    recv_buffers_posted: u64,
    rnr_naks: u64,
    delivered: u64,
    p99_us: f64,
}

/// `n_senders` QPs blast one receiver that either gives each QP its own
/// receive queue (depth `per_qp`) or shares one SRQ (depth `srq_depth`).
fn trial(use_srq: bool, seed: u64) -> Outcome {
    let n_senders = 32u32;
    // Dedicated queues are provisioned for the worst single-QP burst; the
    // SRQ is sized for the *average* — that is exactly its memory appeal,
    // and its RNR exposure.
    let per_qp = 128u64;
    let srq_depth = 128u64;
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::rack(n_senders + 1), &rng);
    let rx = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("rx"));
    let pd = rx.alloc_pd();
    let cq = rx.create_cq(1 << 16);
    let srq = if use_srq {
        Some(rx.create_srq(srq_depth as usize))
    } else {
        None
    };

    let mut posted = 0u64;
    if let Some(srq) = &srq {
        for i in 0..srq_depth {
            srq.post(RecvWr::new(i, 0, 4096, 0)).unwrap();
            posted += 1;
        }
    }

    let mut latency = xrdma_sim::stats::Histogram::new();
    let mut senders = Vec::new();
    let mut rx_qps: Vec<(Rc<xrdma_rnic::Qp>, Option<Rc<Srq>>)> = Vec::new();
    for i in 1..=n_senders {
        let nic = Rnic::new(
            &fabric,
            NodeId(i),
            RnicConfig::default(),
            rng.fork(&format!("s{i}")),
        );
        let spd = nic.alloc_pd();
        let scq = nic.create_cq(4096);
        let sqp = nic.create_qp(
            &spd,
            scq.clone(),
            scq.clone(),
            QpCaps {
                max_send_wr: 4096,
                max_recv_wr: 8,
            },
            None,
        );
        let rqp = rx.create_qp(
            &pd,
            cq.clone(),
            cq.clone(),
            QpCaps {
                max_send_wr: 64,
                max_recv_wr: per_qp as usize,
            },
            srq.clone(),
        );
        Rnic::connect_pair(&nic, &sqp, &rx, &rqp).expect("fresh QPs wire cleanly");
        if srq.is_none() {
            for k in 0..per_qp {
                rqp.post_recv(RecvWr::new(k, 0, 4096, 0)).unwrap();
                posted += 1;
            }
        }
        rx_qps.push((rqp, srq.clone()));
        senders.push((nic, sqp));
    }

    // Receiver poll loop: drain CQ and replenish (per-QP or SRQ).
    {
        let cq2 = cq.clone();
        let world2 = world.clone();
        let srq2 = srq.clone();
        let rx_qps2: Vec<Rc<xrdma_rnic::Qp>> = rx_qps.iter().map(|(q, _)| q.clone()).collect();
        fn pump(
            cq: Rc<xrdma_rnic::CompletionQueue>,
            world: Rc<World>,
            srq: Option<Rc<Srq>>,
            qps: Vec<Rc<xrdma_rnic::Qp>>,
        ) {
            let cqes = cq.poll(usize::MAX);
            for cqe in &cqes {
                // Replenish the queue the CQE consumed from.
                match &srq {
                    Some(s) => {
                        let _ = s.post(RecvWr::new(0, 0, 4096, 0));
                    }
                    None => {
                        if let Some(q) = qps.iter().find(|q| q.qpn == cqe.qpn) {
                            let _ = q.post_recv(RecvWr::new(0, 0, 4096, 0));
                        }
                    }
                }
            }
            let w2 = world.clone();
            world.schedule_in(Dur::micros(150), move || pump(cq, w2, srq, qps));
        }
        pump(cq2, world2, srq2, rx_qps2);
    }

    // Bursty senders.
    let mut burst_rng = rng.fork("bursts");
    for (nic, qp) in &senders {
        let n = burst_rng.range(1, 4);
        for _ in 0..n {
            let _ = nic.post_send(qp, SendWr::send(1, Payload::Zero(512)).unsignaled());
        }
    }
    for round in 0..400 {
        world.run_for(Dur::micros(100));
        for (nic, qp) in &senders {
            if burst_rng.chance(0.2) {
                let k = burst_rng.range(20, 60);
                for _ in 0..k {
                    let _ = nic.post_send(qp, SendWr::send(1, Payload::Zero(512)).unsignaled());
                }
            }
        }
        let _ = round;
    }
    world.run_for(Dur::millis(100));

    // Latency proxy: per-QP retransmissions inflate tail; reconstruct from
    // rnr events per sender.
    for (_, qp) in &senders {
        latency.record(1 + qp.rnr_events.get() * 200);
    }
    Outcome {
        recv_buffers_posted: posted,
        rnr_naks: rx.stats().rnr_naks_sent,
        delivered: cq.total_pushed(),
        p99_us: latency.percentile(99.0) as f64,
    }
}

pub fn run() -> Report {
    let dedicated = trial(false, 7);
    let shared = trial(true, 7);

    let mut rep = Report::new(
        "exp_srq",
        "SRQ: memory saving vs RNR/jitter (supported, disabled by default)",
    );
    rep.row(
        "receive buffers (memory) with SRQ",
        "effectively reduced",
        format!(
            "{} -> {} initial buffers ({}x less)",
            dedicated.recv_buffers_posted,
            shared.recv_buffers_posted,
            dedicated.recv_buffers_posted / shared.recv_buffers_posted.max(1)
        ),
        shared.recv_buffers_posted * 2 < dedicated.recv_buffers_posted,
    );
    rep.row(
        "RNR NAKs with dedicated RQs",
        "none (adequately provisioned)",
        format!("{}", dedicated.rnr_naks),
        dedicated.rnr_naks == 0,
    );
    rep.row(
        "RNR NAKs with SRQ under bursts",
        "violates RNR-free; potential jitter",
        format!("{}", shared.rnr_naks),
        shared.rnr_naks > dedicated.rnr_naks,
    );
    rep.row(
        "throughput under SRQ bursts",
        "SRQ can cause network jitter / degradation",
        format!(
            "{} -> {} delivered ({:.0}% loss to RNR backoff)",
            dedicated.delivered,
            shared.delivered,
            (1.0 - shared.delivered as f64 / dedicated.delivered as f64) * 100.0
        ),
        shared.delivered < dedicated.delivered,
    );
    rep.row(
        "jitter proxy (p99 retry inflation)",
        "SRQ worse",
        format!("{} vs {}", dedicated.p99_us, shared.p99_us),
        shared.p99_us >= dedicated.p99_us,
    );
    rep
}
