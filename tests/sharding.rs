//! Threaded lane-engine differential suite (DESIGN.md §3.15): the same
//! seed must produce *byte-identical* artifacts — determinism digests,
//! telemetry record JSONL, span JSONL, per-lane stats — at every shard
//! count, with rounds really executing on worker threads under
//! conservative lookahead, proving the mailbox protocol is
//! interleaving-invariant.
//!
//! The proptests at the bottom hammer the lane engine with random
//! topologies and shard counts: cross-lane delivery keeps per-pair FIFO
//! order, nothing ever lands below the lookahead horizon, and no lane
//! starves short of the deadline.

use xrdma_sim::shard::HOP_NS;
use xrdma_sim::{Dur, Lane, ShardConfig, ShardWorld, Time};

// ---------------------------------------------------------------------------
// The threaded lane engine: differential + flaky-guard
// ---------------------------------------------------------------------------

/// The reference 33-lane incast on the *threaded* engine.
fn model_digest(shards: usize) -> String {
    let mut w = xrdma_sim::shard::incast(33, shards, 90125);
    w.run_until(Time(1_500_000));
    w.digest()
}

#[test]
fn lane_engine_digest_identical_across_shard_counts() {
    let base = model_digest(1);
    for shards in [2usize, 4, 8] {
        let got = model_digest(shards);
        assert_identical(&base, &got, &format!("shards={shards} vs serial"));
    }
    assert!(
        base.contains("\"ev\":\"done\""),
        "RPCs actually completed:\n{base}"
    );
}

/// Flaky-guard: thread-interleaving nondeterminism is exactly the bug
/// class a single green run can hide, so the 8-shard digest runs three
/// times in-process. A mismatch reports the first diverging line pair —
/// the first event whose order flipped — not just "digests differ".
#[test]
fn lane_engine_shards8_stable_across_three_reruns() {
    let base = model_digest(8);
    for round in 1..3 {
        let got = model_digest(8);
        assert_identical(&base, &got, &format!("shards=8 rerun #{round}"));
    }
}

// ---------------------------------------------------------------------------
// The real middleware stack on threaded lanes (xrdma_core::lane)
// ---------------------------------------------------------------------------

/// The ported stack — channels/seq-ack, QP/CQ/DCQCN, NIC endpoints,
/// CM, keepalive — running the grouped-incast workload on the threaded
/// engine. Every observable artifact (digest, telemetry records JSONL,
/// derived span JSONL, per-lane round/mailbox stats) must be
/// byte-identical at every shard count.
mod lane_stack {
    use super::assert_identical;
    use xrdma_core::lane::{grouped_incast, spans_jsonl, HostWorld, IncastSpec};
    use xrdma_sim::Time;

    fn world(shards: usize, drop_every: u64) -> HostWorld {
        let mut spec = IncastSpec::full(32, shards, 90125);
        spec.group = 8;
        spec.rpc_size = 16 * 1024;
        spec.heartbeat_ns = 150_000;
        spec.drop_every = drop_every;
        let mut w = grouped_incast(spec);
        w.run_until(Time(2_000_000));
        w
    }

    #[test]
    fn full_stack_artifacts_identical_at_every_shard_count() {
        let base = world(1, 0);
        let (digest, records, spans) = (base.digest(), base.records_jsonl(), spans_jsonl(&base));
        let stats = format!("{:?}", base.lane_stats());
        assert!(digest.contains("Up"), "channels connected:\n{digest}");
        assert!(spans.contains("\"span\":\"rpc\""), "spans derived");
        for shards in [2usize, 4, 8] {
            let w = world(shards, 0);
            assert_identical(&digest, &w.digest(), &format!("stack digest s={shards}"));
            assert_identical(
                &records,
                &w.records_jsonl(),
                &format!("telemetry JSONL s={shards}"),
            );
            assert_identical(&spans, &spans_jsonl(&w), &format!("span JSONL s={shards}"));
            // Rounds, mailbox send/recv and executed counts are part of
            // the determinism contract too — imbalance diagnostics must
            // not depend on which engine produced them.
            assert_eq!(
                stats,
                format!("{:?}", w.lane_stats()),
                "lane stats s={shards}"
            );
        }
    }

    /// Chaos leg: deterministic packet loss on every host NIC. Go-back-N
    /// must recover (retransmissions observed, RPCs still complete) and
    /// the lossy run must stay byte-identical on threaded lanes.
    #[test]
    fn full_stack_loss_chaos_identical_and_recovers() {
        let base = world(1, 211);
        let retx: u64 = base
            .lanes()
            .iter()
            .flat_map(|l| l.state.rnic.qps.iter())
            .map(|q| q.retransmissions)
            .sum();
        assert!(retx > 0, "drop knob must force go-back-N recovery");
        let done: u64 = base.lanes().iter().map(|l| l.state.app.rpcs_done).sum();
        assert!(done > 100, "RPCs complete despite loss: {done}");
        let digest = base.digest();
        for shards in [4usize, 8] {
            let w = world(shards, 211);
            assert_identical(&digest, &w.digest(), &format!("lossy digest s={shards}"));
        }
    }

    /// The workload must actually exercise the mailbox protocol: every
    /// lane sends and receives cross-lane events (bulk racks + the
    /// cross-rack heartbeat mesh), at every shard count.
    #[test]
    fn every_lane_exchanges_cross_lane_traffic() {
        let w = world(4, 0);
        for s in w.lane_stats() {
            assert!(s.rounds > 0, "lane {} never entered a round", s.lane);
            assert!(s.cross_sent > 0, "lane {} sent nothing cross-lane", s.lane);
            assert!(s.cross_recv > 0, "lane {} got nothing cross-lane", s.lane);
        }
    }

    /// Lane utilization, the machine-independent half of the
    /// shard-scaling argument (EXPERIMENTS.md): on the 64-host grouped
    /// incast the busiest lane — a rack sink — executes at most 8× its
    /// fair share of events, since one lane owning the run caps the
    /// speedup at 1/share however many cores exist.
    #[test]
    fn busiest_lane_within_eight_fair_shares() {
        let mut w = grouped_incast(IncastSpec::full(64, 4, 42));
        w.run_until(Time(5_000_000));
        let stats = w.lane_stats();
        let total: u64 = stats.iter().map(|s| s.executed).sum();
        let busiest = stats.iter().max_by_key(|s| s.executed).expect("64 lanes");
        assert!(
            busiest.executed * stats.len() as u64 <= 8 * total,
            "lane {} executed {} of {total} events, over 8x the fair share of {} lanes",
            busiest.lane,
            busiest.executed,
            stats.len()
        );
    }
}

/// Byte-compare two digests; on mismatch, dump the first diverging line
/// pair (the earliest reordered/dropped event) for forensics.
fn assert_identical(base: &str, got: &str, what: &str) {
    if base == got {
        return;
    }
    for (i, (b, g)) in base.lines().zip(got.lines()).enumerate() {
        if b != g {
            panic!(
                "{what}: first divergence at line {}:\n  base: {b}\n  got:  {g}",
                i + 1
            );
        }
    }
    panic!(
        "{what}: one digest is a prefix of the other ({} vs {} lines)",
        base.lines().count(),
        got.lines().count()
    );
}

// ---------------------------------------------------------------------------
// Proptests: random topologies × shard counts
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

const LOOKAHEAD_NS: u64 = 2 * HOP_NS;

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

fn gossip(lanes: usize, shards: usize, seed: u64, deadline: Time) -> ShardWorld<GossipState> {
    let cfg = ShardConfig {
        shards,
        lookahead: Dur::nanos(LOOKAHEAD_NS),
    };
    let states = (0..lanes)
        .map(|_| GossipState {
            n: lanes as u32,
            sent: 0,
            got: Vec::new(),
        })
        .collect();
    let mut w = ShardWorld::new(cfg, seed, states);
    for i in 0..lanes {
        let lane = w.lane_mut(i);
        let start = Time(1 + lane.rng.next_below(2_000));
        lane.schedule_at(start, gossip_tick);
    }
    w.run_until(deadline);
    w
}

proptest::proptest! {
    /// Any topology, any shard count: the run is byte-identical to the
    /// serial (shards=1) execution of the same seed.
    #[test]
    fn random_topology_matches_serial(
        lanes in 2usize..16,
        shards in 2usize..=4,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let deadline = Time(60_000);
        let serial = gossip(lanes, 1, seed, deadline);
        let sharded = gossip(lanes, shards, seed, deadline);
        proptest::prop_assert_eq!(serial.digest(), sharded.digest());
    }

    /// Delivery-order and liveness invariants hold on the threaded path:
    /// per-pair FIFO, nothing below the lookahead horizon, no starved
    /// lane, and the workload actually crossed lanes.
    #[test]
    fn delivery_order_and_liveness(
        lanes in 2usize..16,
        shards in 2usize..=4,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let deadline = Time(60_000);
        let w = gossip(lanes, shards, seed, deadline);
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
