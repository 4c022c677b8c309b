//! `msgrate` — small-message rate vs connection count, batching on/off.
//!
//! The CQ-batching tentpole's headline experiment: one client context
//! fans out to N servers, every channel pipelining 64 B RPCs, so all N
//! connections complete into the client's single shared CQ. Two legs per
//! connection count:
//!
//! * **batched** — the defaults: doorbell coalescing on, `poll_cq`
//!   draining up to 64 CQEs per call;
//! * **serial** — `doorbell_coalesce = false`, `cq_poll_batch = 1`: one
//!   doorbell per WR, one CQE per poll, one wakeup per CQE.
//!
//! Reported per leg: sustained message rate (completed RPCs per simulated
//! second) and simulated CPU cycles per message (client `CpuThread` busy
//! nanoseconds divided by completions — the currency the batching saves).
//! Acceptance at the largest fan-out (64 connections): ≥1.3× message rate
//! *or* ≤0.7× cycles/msg, batched over serial. The differential test in
//! `tests/batching.rs` guarantees the two legs do identical work.
//!
//! `XRDMA_SMOKE=1` shrinks the sweep to {1, 4} connections and
//! drops the speedup gate (tiny runs are dominated by setup).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_bench::scenarios::{self, Net};
use xrdma_bench::Report;
use xrdma_core::{XrdmaChannel, XrdmaConfig};
use xrdma_fabric::{FabricConfig, NodeId};
use xrdma_sim::Dur;

const MSG_BYTES: u64 = 64;
const DEPTH: u32 = 8;

/// One measured leg.
struct Leg {
    /// Completed RPCs per simulated second.
    rate: f64,
    /// Client-thread busy nanoseconds per completed RPC.
    cycles_per_msg: f64,
    completed: u64,
}

/// Client on node 0 fans out one channel to each of `conns` servers, all
/// completions landing in the client's one shared CQ; every channel keeps
/// `DEPTH` 64 B RPCs in flight for `span`.
fn run(cfg: &XrdmaConfig, conns: u32, span: Dur, seed: u64) -> Leg {
    let net: Net = scenarios::net(FabricConfig::rack(conns + 1), seed);
    let client = scenarios::ctx(&net, 0, cfg.clone());
    let mut slots = Vec::new();
    let mut servers = Vec::new();
    for i in 1..=conns {
        let server = scenarios::ctx(&net, i, cfg.clone());
        server.listen(9, |ch| {
            ch.set_on_request(|ch2, _msg, tok| {
                ch2.respond_size(tok, MSG_BYTES).ok();
            });
        });
        servers.push(server);
        let slot: Rc<RefCell<Option<Rc<XrdmaChannel>>>> = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        client.connect(NodeId(i), 9, move |r| {
            *s2.borrow_mut() = Some(r.expect("connect"));
        });
        slots.push(slot);
    }
    net.world.run_for(Dur::millis(50));

    let completed = Rc::new(Cell::new(0u64));
    fn pump(ch: &Rc<XrdmaChannel>, done: &Rc<Cell<u64>>) {
        let c2 = ch.clone();
        let d2 = done.clone();
        ch.send_request_size(MSG_BYTES, move |_, _| {
            d2.set(d2.get() + 1);
            pump(&c2, &d2);
        })
        .ok();
    }
    for slot in &slots {
        let ch = slot.borrow().clone().expect("connected");
        for _ in 0..DEPTH {
            pump(&ch, &completed);
        }
    }
    let busy0 = client.thread().total_busy();
    let done0 = completed.get();
    let t0 = net.world.now();
    net.world.run_for(span);
    let elapsed = net.world.now().since(t0).as_secs_f64().max(1e-12);
    let busy = client.thread().total_busy() - busy0;
    let n = completed.get() - done0;
    Leg {
        rate: n as f64 / elapsed,
        cycles_per_msg: busy.as_nanos() as f64 / (n as f64).max(1.0),
        completed: n,
    }
}

fn main() {
    let smoke = xrdma_bench::smoke();
    let (sweep, span): (&[u32], Dur) = if smoke {
        (&[1, 4], Dur::millis(5))
    } else {
        (&[1, 4, 16, 64], Dur::millis(40))
    };

    let batched_cfg = XrdmaConfig::default();
    let serial_cfg = XrdmaConfig {
        doorbell_coalesce: false,
        cq_poll_batch: 1,
        ..Default::default()
    };

    let mut rep = Report::new(
        "msgrate",
        "64B message rate vs connection count: CQ batching + doorbell coalescing on/off",
    );
    let mut rate_on = Vec::new();
    let mut rate_off = Vec::new();
    let mut cyc_on = Vec::new();
    let mut cyc_off = Vec::new();
    let mut last = None;
    println!("CONNS  MODE     MSGS      RATE(msg/s)   CYCLES/MSG(ns)");
    for &conns in sweep {
        let on = run(&batched_cfg, conns, span, 42);
        let off = run(&serial_cfg, conns, span, 42);
        for (mode, leg) in [("batched", &on), ("serial", &off)] {
            println!(
                "{conns:<6} {mode:<8} {:<9} {:<13.0} {:.0}",
                leg.completed, leg.rate, leg.cycles_per_msg
            );
        }
        rate_on.push((conns as f64, on.rate));
        rate_off.push((conns as f64, off.rate));
        cyc_on.push((conns as f64, on.cycles_per_msg));
        cyc_off.push((conns as f64, off.cycles_per_msg));
        last = Some((conns, on, off));
    }

    let (conns, on, off) = last.expect("non-empty sweep");
    let rate_gain = on.rate / off.rate.max(1e-9);
    let cyc_ratio = on.cycles_per_msg / off.cycles_per_msg.max(1e-9);
    rep.row(
        &format!("message-rate gain at {conns} conns (batched / serial)"),
        ">=1.3x (or cycles/msg <=0.7x)",
        format!("{rate_gain:.2}x rate, {cyc_ratio:.2}x cycles/msg"),
        smoke || rate_gain >= 1.3 || cyc_ratio <= 0.7,
    );
    rep.row(
        &format!("cycles/msg at {conns} conns (batched vs serial)"),
        "batching amortizes doorbells + polls",
        format!(
            "{:.0} vs {:.0} ns/msg",
            on.cycles_per_msg, off.cycles_per_msg
        ),
        smoke || on.cycles_per_msg < off.cycles_per_msg,
    );
    rep.series("msgrate_batched", rate_on);
    rep.series("msgrate_serial", rate_off);
    rep.series("cycles_per_msg_batched", cyc_on);
    rep.series("cycles_per_msg_serial", cyc_off);
    rep.finish();
    if !rep.all_hold() {
        std::process::exit(1);
    }
}
