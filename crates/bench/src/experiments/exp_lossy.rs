//! §IX "Eradicate PFC": the paper expects the industry to "discard PFC
//! and focus on the lossy network" — because PFC storms can deadlock whole
//! clusters. This experiment runs the same incast on (a) the lossless
//! PFC fabric, (b) a lossy fabric (PFC off, shallow switch buffers) where
//! RC retransmission carries the recovery burden, with and without
//! X-RDMA's flow control.
//!
//! Expected shape: on the lossy fabric, raw traffic loses goodput to
//! drop-triggered go-back-N; flow control keeps queues shallow enough
//! that losses (and retransmits) mostly disappear — supporting the
//! paper's position that smarter end-host control can replace PFC.

use std::cell::Cell;
use std::rc::Rc;

use crate::report::gbps;
use crate::scenarios::{connect_slot, ctx, net};
use crate::Report;
use xrdma_core::{XrdmaChannel, XrdmaConfig};
use xrdma_fabric::{FabricConfig, NodeId};
use xrdma_sim::Dur;

struct Outcome {
    goodput_gbps: f64,
    drops: u64,
    pauses: u64,
    retransmissions: u64,
}

fn trial(pfc: bool, flow_control: bool, seed: u64) -> Outcome {
    let senders = 16u32;
    let mut fcfg = FabricConfig::rack(senders + 1);
    fcfg.pfc.enabled = pfc;
    if !pfc {
        // A lossy switch: shallow per-queue buffer, ECN still on.
        fcfg.queue_limit_bytes = 512 * 1024;
    }
    let net = net(fcfg, seed);
    let mut cfg = XrdmaConfig::default();
    cfg.flowctl.enabled = flow_control;
    cfg.flowctl.max_outstanding = 2;

    let sink = ctx(&net, 0, cfg.clone());
    let mut contexts = vec![sink.clone()];
    let received = Rc::new(Cell::new(0u64));
    let r = received.clone();
    sink.listen(9, move |ch| {
        let r2 = r.clone();
        ch.set_on_request(move |c, msg, t| {
            r2.set(r2.get() + msg.len);
            c.respond_size(t, 32).ok();
        });
    });
    let mut all = Vec::new();
    for i in 1..=senders {
        let c = ctx(&net, i, cfg.clone());
        let slot = connect_slot(&c, NodeId(0), 9);
        contexts.push(c);
        all.push(slot);
    }
    net.world.run_for(Dur::millis(100));
    fn pump(ch: &Rc<XrdmaChannel>, size: u64) {
        let c2 = ch.clone();
        ch.send_request_size(size, move |_, resp| {
            if !resp.is_error() {
                pump(&c2, size);
            }
        })
        .ok();
    }
    for slot in &all {
        let ch = slot.borrow().clone().expect("connected");
        for _ in 0..4 {
            pump(&ch, 256 * 1024);
        }
    }
    let span = Dur::millis(400);
    let t0 = net.world.now();
    net.world.run_for(span);
    let elapsed = net.world.now().since(t0).as_secs_f64();
    let c = net.fabric.stats().snapshot();
    Outcome {
        goodput_gbps: received.get() as f64 * 8.0 / elapsed / 1e9,
        drops: c.drops,
        pauses: c.pause_frames,
        // Every node: the 256 KiB requests go rendezvous, so the sink
        // issues the READs and re-issues them on loss.
        retransmissions: contexts
            .iter()
            .map(|c| c.rnic().stats().retransmissions)
            .sum(),
    }
}

pub fn run() -> Report {
    let lossless = trial(true, true, 4);
    let lossy_raw = trial(false, false, 4);
    let lossy_fc = trial(false, true, 4);

    println!(
        "{:<22} {:>10} {:>8} {:>8} {:>8}",
        "config", "goodput", "drops", "pauses", "retx"
    );
    for (name, o) in [
        ("lossless + fc", &lossless),
        ("lossy, raw", &lossy_raw),
        ("lossy + fc", &lossy_fc),
    ] {
        println!(
            "{:<22} {:>7.2} Gb {:>8} {:>8} {:>8}",
            name, o.goodput_gbps, o.drops, o.pauses, o.retransmissions
        );
    }

    let mut rep = Report::new(
        "exp_lossy",
        "§IX future work: dropping PFC and running lossy with end-host control",
    );
    rep.row(
        "lossy fabric without end-host control",
        "drops + go-back-N hurt goodput",
        format!(
            "{} / {} drops / {} retx",
            gbps(lossy_raw.goodput_gbps),
            lossy_raw.drops,
            lossy_raw.retransmissions
        ),
        lossy_raw.drops > 0
            && lossy_raw.goodput_gbps < lossless.goodput_gbps
            && lossy_raw.retransmissions > 0,
    );
    rep.row(
        "flow control removes (nearly) all loss",
        "smarter end-host control can replace PFC",
        format!(
            "{} drops with fc vs {} raw",
            lossy_fc.drops, lossy_raw.drops
        ),
        lossy_fc.drops < lossy_raw.drops / 10,
    );
    rep.row(
        "lossy+fc goodput ≈ lossless+fc",
        "PFC becomes unnecessary",
        format!(
            "{} vs {}",
            gbps(lossy_fc.goodput_gbps),
            gbps(lossless.goodput_gbps)
        ),
        lossy_fc.goodput_gbps > lossless.goodput_gbps * 0.9,
    );
    rep.row(
        "no pause frames on the lossy fabric",
        "PFC storms structurally impossible",
        format!("{}", lossy_fc.pauses),
        lossy_fc.pauses == 0,
    );
    rep
}
