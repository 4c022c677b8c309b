//! Lane-engine suite (DESIGN.md §3.15): the digests of the reference
//! lane workloads are pinned, the real middleware stack runs on lanes
//! and recovers from loss, and every artifact it writes is byte-identical
//! across reruns.
//!
//! The proptest at the bottom hammers the lane engine with random
//! topologies: cross-lane delivery keeps per-pair FIFO order, nothing
//! ever lands below the lookahead horizon, and no lane starves short of
//! the deadline.

use xrdma_sim::shard::LOOKAHEAD;
use xrdma_sim::{Dur, Lane, ShardConfig, ShardWorld, Time};

/// 64-bit FNV-1a (the `model_digest` hash of `benchmark/src/stats.rs`),
/// rendered with the input length.
fn fnv(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x} over {} bytes", s.len())
}

/// The oracle for the round loop. These hashes were captured from the
/// threaded engine, where shard counts {1, 2, 4, 8} agreed byte for byte.
/// The round bounds and the merge order decide which sequence number every
/// merged cross event takes, so a change to either moves them.
#[test]
fn lane_engine_digests_are_pinned() {
    let mut w = xrdma_sim::shard::incast(33, 90125);
    w.run_until(Time(1_500_000));
    let digest = w.digest();
    assert!(
        digest.contains("\"ev\":\"done\""),
        "RPCs actually completed:\n{digest}"
    );
    assert_eq!(
        fnv(&digest),
        "53f8f08657f8cd80 over 962221 bytes",
        "incast(33)"
    );
    for (drop_every, want) in [
        (0, "8d83d0abce36722d over 107301 bytes"),
        (211, "434b9c65cfb60577 over 106811 bytes"),
    ] {
        let w = lane_stack::world(drop_every);
        assert_eq!(
            fnv(&w.digest()),
            want,
            "grouped_incast drop_every={drop_every}"
        );
    }
}

// ---------------------------------------------------------------------------
// The real middleware stack on lanes (xrdma_core::lane)
// ---------------------------------------------------------------------------

/// The ported stack — channels/seq-ack, QP/CQ/DCQCN, NIC endpoints,
/// CM, keepalive — running the grouped-incast workload on the lane
/// engine.
mod lane_stack {
    use xrdma_core::lane::{grouped_incast, spans_jsonl, HostWorld, IncastSpec};
    use xrdma_sim::Time;

    pub(super) fn world(drop_every: u64) -> HostWorld {
        let mut spec = IncastSpec::full(32, 90125);
        spec.group = 8;
        spec.rpc_size = 16 * 1024;
        spec.heartbeat_ns = 150_000;
        spec.drop_every = drop_every;
        let mut w = grouped_incast(spec);
        w.run_until(Time(2_000_000));
        w
    }

    /// Every observable artifact — digest, telemetry records JSONL,
    /// derived span JSONL, per-lane round/cross-lane stats — is
    /// byte-identical when the same seed runs twice.
    #[test]
    fn full_stack_artifacts_identical_across_reruns() {
        let artifacts = |w: &HostWorld| {
            [
                w.digest(),
                w.records_jsonl(),
                spans_jsonl(w),
                format!("{:?}", w.lane_stats()),
            ]
        };
        let base = artifacts(&world(0));
        assert!(base[0].contains("Up"), "channels connected:\n{}", base[0]);
        assert!(base[2].contains("\"span\":\"rpc\""), "spans derived");
        assert_eq!(base, artifacts(&world(0)));
    }

    /// Chaos leg: deterministic packet loss on every host NIC. Go-back-N
    /// must recover (retransmissions observed, RPCs still complete); the
    /// lossy digest is pinned by `lane_engine_digests_are_pinned`.
    #[test]
    fn full_stack_loss_chaos_identical_and_recovers() {
        let base = world(211);
        let retx: u64 = base
            .lanes()
            .iter()
            .flat_map(|l| l.state.rnic.qps.iter())
            .map(|q| q.retransmissions)
            .sum();
        assert!(retx > 0, "drop knob must force go-back-N recovery");
        let done: u64 = base.lanes().iter().map(|l| l.state.app.rpcs_done).sum();
        assert!(done > 100, "RPCs complete despite loss: {done}");
    }

    /// The workload must actually cross lanes: every lane sends and
    /// receives cross-lane events (bulk racks + the cross-rack heartbeat
    /// mesh).
    #[test]
    fn every_lane_exchanges_cross_lane_traffic() {
        let w = world(0);
        for s in w.lane_stats() {
            assert!(s.rounds > 0, "lane {} never entered a round", s.lane);
            assert!(s.cross_sent > 0, "lane {} sent nothing cross-lane", s.lane);
            assert!(s.cross_recv > 0, "lane {} got nothing cross-lane", s.lane);
        }
    }
}

// ---------------------------------------------------------------------------
// Proptests: random topologies
// ---------------------------------------------------------------------------

/// Random-gossip lane state. `n` is the topology size (lanes can't see
/// the world, so it rides in the state); `got` records every delivery as
/// `(src, k, measured_delay)` where `k` is the sender's per-lane message
/// index and the delay is measured at the receiver.
#[derive(Clone, Debug)]
struct GossipState {
    n: u32,
    sent: u64,
    got: Vec<(u32, u64, u64)>,
}

const LOOKAHEAD_NS: u64 = LOOKAHEAD.as_nanos();

/// Each lane sends to a random peer and reschedules itself forever. The
/// cross-lane delay is a *pure function of the (src, dst) pair*, so
/// deliveries for a given pair must arrive in send order — the per-pair
/// FIFO property the proptest checks.
fn gossip_tick(lane: &mut Lane<GossipState>) {
    let me = lane.id();
    let n = lane.state.n;
    let k = lane.state.sent;
    lane.state.sent += 1;
    let mut dst = lane.rng.next_below(u64::from(n) - 1) as u32;
    if dst >= me {
        dst += 1;
    }
    let delay = Dur::nanos(LOOKAHEAD_NS * (1 + (u64::from(me) + u64::from(dst)) % 3));
    let sent_at = lane.now().nanos();
    lane.send_to(dst, delay, move |l| {
        let measured = l.now().nanos().saturating_sub(sent_at);
        l.state.got.push((me, k, measured));
    });
    let think = Dur::nanos(700 + lane.rng.next_below(4_000));
    lane.schedule_in(think, gossip_tick);
}

fn gossip(lanes: usize, seed: u64, deadline: Time) -> ShardWorld<GossipState> {
    let states = (0..lanes)
        .map(|_| GossipState {
            n: lanes as u32,
            sent: 0,
            got: Vec::new(),
        })
        .collect();
    let mut w = ShardWorld::new(ShardConfig::default(), seed, states);
    for i in 0..lanes {
        let lane = w.lane_mut(i);
        let start = Time(1 + lane.rng.next_below(2_000));
        lane.schedule_at(start, gossip_tick);
    }
    w.run_until(deadline);
    w
}

proptest::proptest! {
    /// Delivery-order and liveness invariants: per-pair FIFO, nothing
    /// below the lookahead horizon, no starved lane, and the workload
    /// actually crossed lanes.
    #[test]
    fn delivery_order_and_liveness(
        lanes in 2usize..16,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let deadline = Time(60_000);
        let w = gossip(lanes, seed, deadline);
        let mut crossings = 0u64;
        for lane in w.lanes() {
            // Liveness: every lane reached the deadline.
            proptest::prop_assert_eq!(lane.now(), deadline);
            let mut last_k: std::collections::BTreeMap<u32, u64> =
                std::collections::BTreeMap::new();
            for &(src, k, measured) in &lane.state.got {
                crossings += 1;
                // Horizon: never delivered earlier than send + L.
                proptest::prop_assert!(
                    measured >= LOOKAHEAD_NS,
                    "lane {} got a message from {} after {}ns < lookahead {}ns",
                    lane.id(), src, measured, LOOKAHEAD_NS
                );
                // Per-pair FIFO: constant pair delay ⇒ send order is
                // delivery order, so sender indices strictly increase.
                if let Some(prev) = last_k.insert(src, k) {
                    proptest::prop_assert!(
                        k > prev,
                        "pair {}→{} delivered k={} after k={}",
                        src, lane.id(), k, prev
                    );
                }
            }
        }
        proptest::prop_assert!(crossings > 0, "gossip must actually cross lanes");
    }
}
