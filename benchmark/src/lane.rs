//! `lane_incast`: the second stack (`fabric::lane`, `rnic::lane`,
//! `core::lane`) on the threaded engine, built here from `HostLane`,
//! `HostHooks`, `connect`, `channel_request` and `channel_reply` — not from
//! the library's `grouped_incast`, whose keepalive default kills every
//! channel within ~2 ms of virtual time (see `default_probe_interval_trips`).

use std::collections::HashMap;

use xrdma_core::lane::{
    channel_reply, channel_request, connect, ChanState, HostConfig, HostHooks, HostLane, LaneMsg,
};
use xrdma_sim::{Dur, Lane, ShardConfig, ShardWorld, Time};

use crate::harness::{Counts, Expect, Progress, Workload, WARMUP_NS};
use crate::trace::{self, Name};

const RACKS: usize = 16;
const RACK_HOSTS: usize = 16;
const REQUEST_BYTES: u32 = 48 * 1024;
const REPLY_BYTES: u32 = 128;
const PIPELINE: u64 = 8;
/// One RPC in this many leaves `tx`/`done` lane records for latency.
const SAMPLE_EVERY: u64 = 16;
/// The serial stack's `keepalive_intv` default. The lane stack's own
/// default, 100 µs, is shorter than a probe's queueing delay here.
pub const PROBE_INTERVAL_NS: u64 = 100_000_000;

type L = Lane<HostLane>;

fn rpc_key(l: &L, chan: u32, rpc: u64) -> u64 {
    (u64::from(l.id()) << 40) | (u64::from(chan) << 32) | (rpc & 0xffff_ffff)
}

/// One caller's next request on `chan`: a quarter-wide spread around
/// 48 KiB from the lane's own seeded stream, the shape the lane stack's
/// reference workload uses.
fn call(l: &mut L, chan: u32) {
    let spread = l.rng.next_below(u64::from(REQUEST_BYTES / 4) + 1) as u32;
    let size = REQUEST_BYTES - REQUEST_BYTES / 8 + spread;
    let rpc = trace::span(Name::Submit, || channel_request(l, chan, size));
    if rpc.is_multiple_of(SAMPLE_EVERY) {
        let key = rpc_key(l, chan, rpc);
        l.emit("tx", key, 0);
    }
}

fn on_connected(l: &mut L, chan: u32) {
    for _ in 0..PIPELINE {
        call(l, chan);
    }
}

fn on_request(l: &mut L, chan: u32, msg: LaneMsg) {
    trace::span(Name::Callback, || {
        trace::span(Name::Submit, || {
            channel_reply(l, chan, msg.rpc, REPLY_BYTES)
        })
    })
}

fn on_reply(l: &mut L, chan: u32, msg: LaneMsg) {
    trace::span(Name::Callback, || {
        if msg.rpc.is_multiple_of(SAMPLE_EVERY) {
            let key = rpc_key(l, chan, msg.rpc);
            l.emit("done", key, 0);
        }
        call(l, chan);
    })
}

pub struct LaneIncast {
    world: ShardWorld<HostLane>,
    /// Round trips that began before this instant belong to the warm-up.
    samples_from: Time,
}

/// The lane stack has no eager/rendezvous split, no mux and no host CPU
/// model; the issue asks losslessness of the serial workloads only.
pub const EXPECT: Expect = Expect {
    lossless: false,
    large_msg_share: None,
    mux_pool_peak: None,
    models_cpu: false,
};

/// 16 racks of 16 hosts; in each rack 15 clients keep 8 × 48 KiB requests
/// in flight into the rack's first host, which answers with 128 B.
pub fn lane_incast(seed: u64, shards: usize, probe_interval_ns: u64) -> LaneIncast {
    let cfg = HostConfig {
        probe_interval_ns,
        ..Default::default()
    };
    let hooks = HostHooks {
        on_request: Some(on_request),
        on_reply: Some(on_reply),
        on_connected: Some(on_connected),
        on_peer_dead: None,
    };
    let states = (0..RACKS * RACK_HOSTS)
        .map(|h| {
            let mut s = HostLane::new(h as u32, cfg);
            s.hooks = hooks;
            s
        })
        .collect();
    let mut world = ShardWorld::new(
        ShardConfig {
            shards,
            ..Default::default()
        },
        seed,
        states,
    );
    for h in 0..RACKS * RACK_HOSTS {
        let sink = (h / RACK_HOSTS * RACK_HOSTS) as u32;
        if h as u32 == sink {
            continue;
        }
        let lane = world.lane_mut(h);
        // Stagger the connects so the handshakes do not pulse in one instant.
        let at = Time(1 + lane.rng.next_below(20_000));
        lane.schedule_at(at, move |l| {
            connect(l, sink, 0);
        });
    }
    // Handshakes take two 100 µs out-of-band legs; then the warm-up proper.
    let mut w = LaneIncast {
        world,
        samples_from: Time::ZERO,
    };
    w.advance(300_000 + WARMUP_NS);
    w
}

impl LaneIncast {
    fn sum(&self, f: impl Fn(&HostLane) -> u64) -> u64 {
        self.world.lanes().iter().map(|l| f(&l.state)).sum()
    }
}

impl Workload for LaneIncast {
    fn advance(&mut self, virt_ns: u64) {
        let until = self.world.now() + Dur::nanos(virt_ns);
        self.world.run_until(until);
    }

    fn progress(&self) -> Progress {
        Progress {
            sent: self.sum(|s| s.app.rpcs_started),
            done: self.sum(|s| s.app.rpcs_done),
            send_errs: 0,
            error_replies: 0,
            // Requests as delivered at the sinks plus replies as delivered
            // at the clients.
            payload_bytes: self.sum(|s| {
                s.app.rpc_bytes
                    + if (s.host as usize).is_multiple_of(RACK_HOSTS) {
                        s.chans.iter().map(|c| c.bytes_recv).sum()
                    } else {
                        0
                    }
            }),
        }
    }

    fn events(&self) -> u64 {
        self.world.total_executed()
    }

    fn pending(&self) -> u64 {
        self.world.lanes().iter().map(|l| l.pending() as u64).sum()
    }

    fn counters(&self) -> Counts {
        let stats = self.world.lane_stats();
        let qps = |f: fn(&xrdma_rnic::lane::QpLane<LaneMsg>) -> u64| {
            self.sum(|s| s.rnic.qps.iter().map(f).sum())
        };
        let chans = |f: fn(&xrdma_core::lane::ChannelLane) -> u64| {
            self.sum(|s| s.chans.iter().map(f).sum())
        };
        Counts::from([
            ("sim.cross_sent", stats.iter().map(|s| s.cross_sent).sum()),
            (
                "sim.rounds",
                stats.iter().map(|s| s.rounds).max().unwrap_or(0),
            ),
            ("fabric.pkts", self.sum(|s| s.nic.rx_pkts)),
            ("fabric.bytes", self.sum(|s| s.nic.rx_bytes)),
            ("fabric.ecn_marked", self.sum(|s| s.nic.ecn_marked)),
            ("fabric.drops", self.sum(|s| s.nic.dropped)),
            ("rnic.posted_wrs", qps(|q| q.tx_msgs)),
            ("rnic.retransmissions", qps(|q| q.retransmissions)),
            ("rnic.cnps", qps(|q| q.cnps_rx)),
            ("core.cq_polls", self.sum(|s| s.rnic.cq.polls)),
            ("core.window_stalls", chans(|c| c.window_stalls)),
            ("core.keepalive_probes", chans(|c| c.probes_sent)),
        ])
    }

    fn gauges(&self) -> Counts {
        let lanes = self.world.lanes();
        // The receiver-side downlink queue is kept in time units; at the
        // line rate that many nanoseconds of backlog is this many bytes.
        let max_queue_bytes = lanes
            .iter()
            .map(|l| {
                let n = &l.state.nic;
                (n.max_backlog_ns as f64 * n.cfg().line_rate_gbps / 8.0) as u64
            })
            .max()
            .unwrap_or(0);
        let dead = lanes
            .iter()
            .flat_map(|l| &l.state.chans)
            .filter(|c| c.state == ChanState::Dead)
            .count();
        Counts::from([
            ("fabric.max_queue_bytes", max_queue_bytes),
            ("core.dead_channels", dead as u64),
        ])
    }

    fn reset_latencies(&mut self) {
        self.samples_from = self.world.now();
    }

    fn latencies(&mut self) -> Vec<u64> {
        let mut sent_at: HashMap<u64, Time> = HashMap::new();
        let mut out = Vec::new();
        for r in self.world.merged_records() {
            match r.tag {
                "tx" if r.t >= self.samples_from => {
                    sent_at.insert(r.a, r.t);
                }
                "done" => {
                    if let Some(t0) = sent_at.remove(&r.a) {
                        out.push(r.t.since(t0).as_nanos());
                    }
                }
                _ => {}
            }
        }
        out
    }

    fn max_in_flight(&self) -> u64 {
        (RACKS * (RACK_HOSTS - 1)) as u64 * PIPELINE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::measure;

    /// The lane stack's default probe interval (100 µs) is shorter than the
    /// queueing delay of a probe behind this incast: every channel is
    /// declared dead within a few milliseconds and the "run" is idle
    /// timers. The output checks must say so.
    #[test]
    fn default_probe_interval_trips() {
        let default = HostConfig::default().probe_interval_ns;
        assert_eq!(default, 100_000, "the stack default this test pins");
        let mut w = lane_incast(42, 1, default);
        let m = measure(&mut w, 40_000_000);
        let failed = m.failed_checks(&EXPECT);
        assert!(
            failed.iter().any(|r| r.starts_with("no-progress")),
            "progress check must trip: {failed:?}"
        );
        assert!(
            failed.iter().any(|r| r.starts_with("core.dead_channels")),
            "dead channels must be named: {failed:?}"
        );
    }

    #[test]
    fn serial_default_probe_interval_makes_progress() {
        let mut w = lane_incast(42, 1, PROBE_INTERVAL_NS);
        let m = measure(&mut w, 10_000_000);
        assert_eq!(m.failed_checks(&EXPECT), Vec::<String>::new());
        assert!(m.latencies.len() > 100, "sampled round trips recorded");
    }
}
