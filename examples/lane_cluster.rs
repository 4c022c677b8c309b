//! Lane cluster: the real middleware stack on the lane engine
//! (DESIGN.md §3.15) — a grouped incast across per-host lanes, rendered
//! by `xr-stat`'s lane panel.
//!
//! Prints per-lane residency, the busiest/idlest lanes, and the host
//! application counters.
//!
//! Run with: `cargo run --example lane_cluster`

use xrdma_analysis::xrstat;
use xrdma_core::lane::{grouped_incast, spans_jsonl, IncastSpec};
use xrdma_sim::Time;

const HORIZON: Time = Time(3_000_000); // 3 ms of virtual time

fn main() {
    let mut spec = IncastSpec::full(32, 7);
    spec.group = 8; // 4 racks of 8
    let mut w = grouped_incast(spec);
    w.run_until(HORIZON);
    println!(
        "[lane_cluster] 32 hosts, 4 racks, digest {} bytes",
        w.digest().len()
    );

    let stats = w.lane_stats();
    print!("{}", xrstat::render_lane_panel(&stats));

    let (mut done, mut cnps, mut retx) = (0u64, 0u64, 0u64);
    for lane in w.lanes() {
        let h = &lane.state;
        done += h.app.rpcs_done;
        cnps += h.rnic.qps.iter().map(|q| q.cnps_rx).sum::<u64>();
        retx += h.rnic.qps.iter().map(|q| q.retransmissions).sum::<u64>();
    }
    let spans = spans_jsonl(&w).lines().count();
    println!("[lane_cluster] rpcs_done={done} cnps={cnps} retx={retx} spans={spans}");
    assert!(done > 0, "incast must complete RPCs");
    println!("lane_cluster OK");
}
