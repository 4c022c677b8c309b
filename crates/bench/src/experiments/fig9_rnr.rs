//! Figure 9: the RNR counter under Pangu-style load.
//!
//! Paper claim: X-RDMA's seq-ack window keeps applications **RNR-free**,
//! where the primitive RDMA stack averages ~0.91 RNR errors per sampling
//! interval on the same workload.
//!
//! The "native RDMA" arm reproduces the real failure mode: the receiver
//! replenishes its receive queue from its application thread, and bursts
//! outrun the posted receives — exactly the §III robustness Issue 1.

use std::cell::Cell;
use std::rc::Rc;

use crate::scenarios::{connect_pair, ctx, net};
use crate::Report;
use xrdma_core::XrdmaConfig;
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::verbs::Payload;
use xrdma_rnic::{QpCaps, RecvWr, Rnic, RnicConfig, SendWr};
use xrdma_sim::{Dur, SimRng, World};

/// Native verbs receiver: posts a small batch of receives and replenishes
/// only when its (busy) application thread gets around to it.
fn run_native(seed: u64, intervals: u32) -> Vec<u64> {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::pair(), &rng);
    let tx = Rnic::new(&fabric, NodeId(0), RnicConfig::default(), rng.fork("tx"));
    let rx = Rnic::new(&fabric, NodeId(1), RnicConfig::default(), rng.fork("rx"));
    let pd_t = tx.alloc_pd();
    let pd_r = rx.alloc_pd();
    let cq_t = tx.create_cq(8192);
    let cq_r = rx.create_cq(8192);
    let caps = QpCaps {
        max_send_wr: 4096,
        max_recv_wr: 64,
    };
    let qa = tx.create_qp(&pd_t, cq_t.clone(), cq_t.clone(), caps, None);
    let qb = rx.create_qp(&pd_r, cq_r.clone(), cq_r.clone(), caps, None);
    Rnic::connect_pair(&tx, &qa, &rx, &qb).expect("fresh QPs wire cleanly");

    // Receiver: 48 receives posted, replenished every 150 µs (the app
    // thread is busy doing storage work between polls). Most bursts fit;
    // occasionally one outruns the posted receives — the paper's ~1 RNR
    // per interval regime.
    for i in 0..48 {
        qb.post_recv(RecvWr::new(i, 0, 4096, 0)).unwrap();
    }
    {
        let qb2 = qb.clone();
        let cq = cq_r.clone();
        let w = world.clone();
        fn replenish(qb: Rc<xrdma_rnic::Qp>, cq: Rc<xrdma_rnic::CompletionQueue>, w: Rc<World>) {
            let drained = cq.poll(usize::MAX).len();
            for i in 0..drained {
                let _ = qb.post_recv(RecvWr::new(i as u64, 0, 4096, 0));
            }
            let qb2 = qb.clone();
            let cq2 = cq.clone();
            let w2 = w.clone();
            w.schedule_in(Dur::micros(150), move || replenish(qb2, cq2, w2));
        }
        replenish(qb2, cq, w);
    }

    // Sender: bursty Pangu-ish traffic — batches of sends on a timer.
    {
        let tx2 = tx.clone();
        let qa2 = qa.clone();
        let w = world.clone();
        let mut burst_rng = rng.fork("bursts");
        fn burst(
            tx: Rc<Rnic>,
            qa: Rc<xrdma_rnic::Qp>,
            w: Rc<World>,
            mut rng: SimRng,
            mut wr_id: u64,
        ) {
            let n = rng.range(4, 40);
            for _ in 0..n {
                let _ = tx.post_send(&qa, SendWr::send(wr_id, Payload::Zero(1024)).unsignaled());
                wr_id += 1;
            }
            let gap = Dur::nanos(rng.exp(300_000.0));
            let w2 = w.clone();
            w.schedule_in(gap, move || burst(tx, qa, w2, rng, wr_id));
        }
        let _ = &mut burst_rng;
        burst(tx2, qa2, w, burst_rng, 0);
    }

    // Sample the RNR counter once per interval (1 s in the paper's plot;
    // 10 ms here — same statistic, compressed timescale).
    let samples = Rc::new(std::cell::RefCell::new(Vec::new()));
    let last = Rc::new(Cell::new(0u64));
    for _ in 0..intervals {
        world.run_for(Dur::millis(10));
        let total = rx.stats().rnr_naks_sent;
        samples.borrow_mut().push(total - last.get());
        last.set(total);
    }
    let out = samples.borrow().clone();
    out
}

/// X-RDMA arm: same bursty traffic through the middleware.
fn run_xrdma(seed: u64, intervals: u32) -> (Vec<u64>, u64) {
    let n = net(FabricConfig::pair(), seed);
    let client = ctx(&n, 0, XrdmaConfig::default());
    let server = ctx(&n, 1, XrdmaConfig::default());
    let (c, s) = connect_pair(&n, &client, &server, 7);
    // The receiving application is just as slow/bursty — it doesn't matter:
    // the window paces the sender.
    let srv = server.clone();
    s.set_on_request(move |_, _, _| {
        srv.thread().charge(Dur::micros(15));
    });
    {
        let w = n.world.clone();
        let mut burst_rng = n.rng.fork("bursts");
        fn burst(c: Rc<xrdma_core::XrdmaChannel>, w: Rc<World>, mut rng: SimRng) {
            let k = rng.range(4, 40);
            for _ in 0..k {
                let _ = c.send_oneway_size(1024);
            }
            let gap = Dur::nanos(rng.exp(300_000.0));
            let w2 = w.clone();
            w.schedule_in(gap, move || burst(c, w2, rng));
        }
        let _ = &mut burst_rng;
        burst(c.clone(), w, burst_rng);
    }
    let mut samples = Vec::new();
    let mut last = 0u64;
    for _ in 0..intervals {
        n.world.run_for(Dur::millis(10));
        let total = server.rnic().stats().rnr_naks_sent;
        samples.push(total - last);
        last = total;
    }
    let delivered = s.stats().msgs_received;
    (samples, delivered)
}

pub fn run() -> Report {
    let intervals = 100;
    let native = run_native(11, intervals);
    let (xrdma, delivered) = run_xrdma(11, intervals);

    let native_avg = native.iter().sum::<u64>() as f64 / native.len() as f64;
    let xrdma_avg = xrdma.iter().sum::<u64>() as f64 / xrdma.len() as f64;

    let mut rep = Report::new(
        "fig9_rnr",
        "RNR error counter: X-RDMA seq-ack window vs primitive RDMA",
    );
    rep.row(
        "native RDMA RNR per interval (avg)",
        "0.91",
        format!("{native_avg:.2}"),
        native_avg > 0.2,
    );
    rep.row(
        "X-RDMA RNR per interval",
        "0 (RNR-free)",
        format!("{xrdma_avg:.2}"),
        xrdma_avg == 0.0,
    );
    rep.row(
        "X-RDMA still moved traffic",
        "yes",
        format!("{delivered} msgs"),
        delivered > 1000,
    );
    rep.series(
        "native_rnr",
        native
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * 0.01, v as f64))
            .collect(),
    );
    rep.series(
        "xrdma_rnr",
        xrdma
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * 0.01, v as f64))
            .collect(),
    );
    rep
}
