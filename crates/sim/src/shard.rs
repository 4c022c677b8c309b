//! Per-host event lanes run in conservative-lookahead rounds
//! (DESIGN.md §3.15).
//!
//! A [`ShardWorld`] splits a simulated cluster into per-host event
//! [`Lane`]s — each a miniature world running the same timer-wheel
//! calendar as [`crate::World`] — and runs them on the calling thread in
//! *rounds*: every lane runs all events strictly before
//! `bound = global_min_pending + LOOKAHEAD`, where [`LOOKAHEAD`] is the
//! minimum cross-lane link latency (two ≈500 ns hops through a ToR).
//! Cross-lane interactions travel as messages with delay ≥ `LOOKAHEAD`,
//! so anything a lane sends while executing below `bound` arrives at
//! `sender_now + LOOKAHEAD ≥ bound` — never inside the round that
//! produced it.
//!
//! # Why rounds, on one thread
//!
//! The rounds are the model, not a parallelism device: a lane's local
//! sequence numbers are allocated only (a) during its own event execution
//! and (b) when cross events are merged into its calendar, which happens
//! once per round, sorted by `(at, src_lane, src_seq)`. `src_seq` is the
//! sender's monotone per-lane counter, so the sort key is unique and the
//! merge order is a pure function of simulation state. Where the round
//! bounds fall therefore decides which `seq` every merged event takes,
//! and with it the `(at, seq)` order of same-instant events — the digests
//! pin exactly that.
//!
//! The loop caches each lane's next live instant, so a round costs
//! O(lanes with work below the bound): idle lanes are neither peeked nor
//! visited (see [`ShardWorld::run_until`]). Telemetry is a per-lane
//! record log merged deterministically after the run; RNG is a per-lane
//! [`SimRng`] forked by lane id from the run seed.

use crate::rng::SimRng;
use crate::sched::{EventId, Fired, Sched};
use crate::time::{Dur, Time};

/// One-shot lane callback.
pub type LaneFn<S> = Box<dyn FnOnce(&mut Lane<S>)>;
/// Re-armable (periodic) lane callback.
pub type LaneTimerFn<S> = Box<dyn FnMut(&mut Lane<S>)>;

/// Nanoseconds per fabric hop (the ≈500 ns floor from the paper's rack
/// RTTs); cross-lane messages traverse two hops (host → ToR → host).
const HOP_NS: u64 = 500;

/// Conservative lookahead: the minimum cross-lane delay, two hops
/// (host → ToR → host). It sets the round length.
pub const LOOKAHEAD: Dur = Dur::nanos(2 * HOP_NS);
const _: () = assert!(LOOKAHEAD.as_nanos() > 0, "lookahead must be positive");

/// [`ShardWorld`] construction options.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Ignored: lanes always run on the calling thread. Kept only because
    /// `benchmark/src/lane.rs` still writes it.
    pub shards: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig { shards: 1 }
    }
}

/// One deterministic telemetry record, emitted by lane code via
/// [`Lane::emit`] and merged across lanes by `(t, lane, emit index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneRecord {
    pub t: Time,
    pub lane: u32,
    pub tag: &'static str,
    pub a: u64,
    pub b: u64,
}

/// Per-lane residency counters, read back after a run via
/// [`ShardWorld::lane_stats`]: how many lookahead rounds the lane sat in,
/// how many callbacks it executed, and its cross-lane traffic in both
/// directions. All are pure functions of simulation state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneStats {
    pub lane: u32,
    pub rounds: u64,
    pub executed: u64,
    pub cross_sent: u64,
    pub cross_recv: u64,
    pub records: u64,
}

/// A cross-lane event in flight: executes `f` on lane `dst` at `at`.
/// Ordered at merge time by `(at, src, src_seq)` — a unique key, so the
/// merge never depends on the order lanes were visited in.
struct CrossEvent<S> {
    at: Time,
    dst: u32,
    src: u32,
    src_seq: u64,
    f: LaneFn<S>,
}

/// A per-host event lane: a miniature world with its own clock, sequence
/// counter, timer-wheel calendar, RNG stream, telemetry log, and model
/// state `S`.
pub struct Lane<S> {
    id: u32,
    now: Time,
    seq: u64,
    executed: u64,
    rounds: u64,
    cross_sent: u64,
    cross_recv: u64,
    sched: Sched<LaneFn<S>, LaneTimerFn<S>>,
    outbox: Vec<CrossEvent<S>>,
    records: Vec<LaneRecord>,
    /// Deterministic per-lane stream, forked by lane id from the run seed.
    pub rng: SimRng,
    /// Model state owned by this lane.
    pub state: S,
}

impl<S: 'static> Lane<S> {
    /// This lane's id (its simulated host index).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The lane's current virtual instant.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Callbacks executed on this lane so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Lookahead rounds this lane has participated in. Every lane sits in
    /// every round, executed or skipped.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cross-lane events this lane has sent .
    pub fn cross_sent(&self) -> u64 {
        self.cross_sent
    }

    /// Cross-lane events merged into this lane .
    pub fn cross_recv(&self) -> u64 {
        self.cross_recv
    }

    /// Live pending firings on this lane's calendar.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// Schedule a local event at absolute time `at` (clamped to `now`).
    pub fn schedule_at(&mut self, at: Time, f: impl FnOnce(&mut Lane<S>) + 'static) -> EventId {
        crate::invariant!(
            at >= self.now,
            "lane {} scheduling into the past: {at:?} < {:?}",
            self.id,
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq();
        self.sched.schedule(at, seq, Box::new(f))
    }

    /// Schedule a local event after delay `d`.
    pub fn schedule_in(&mut self, d: Dur, f: impl FnOnce(&mut Lane<S>) + 'static) -> EventId {
        self.schedule_at(self.now.saturating_add(d), f)
    }

    /// Cancel a pending local event (O(1), generation-checked no-op when
    /// already fired).
    pub fn cancel(&mut self, id: EventId) {
        self.sched.cancel(id);
    }

    /// Start a self-re-arming periodic callback (fire-and-forget; the
    /// keepalive-tick idiom). First firing after `period`.
    pub fn start_periodic(&mut self, period: Dur, f: impl FnMut(&mut Lane<S>) + 'static) {
        let idx = self.sched.make_timer(Some(period), Box::new(f));
        let at = self.now.saturating_add(period);
        let seq = self.next_seq();
        self.sched.arm_timer(idx, at, seq);
    }

    /// Send a cross-lane event: run `f` on lane `dst` after `delay`.
    ///
    /// `delay` must be at least [`LOOKAHEAD`] — the contract that lets a
    /// whole round run before its cross sends are merged. Checked under
    /// `debug_invariants` (and always clamped, so release builds stay
    /// deterministic rather than subtly early).
    pub fn send_to(&mut self, dst: u32, delay: Dur, f: impl FnOnce(&mut Lane<S>) + 'static) {
        crate::invariant!(
            delay >= LOOKAHEAD,
            "lane {} cross-send below the lookahead horizon: {delay:?} < {LOOKAHEAD:?}",
            self.id
        );
        let delay = delay.max(LOOKAHEAD);
        let src_seq = self.next_seq();
        self.cross_sent += 1;
        self.outbox.push(CrossEvent {
            at: self.now.saturating_add(delay),
            dst,
            src: self.id,
            src_seq,
            f: Box::new(f),
        });
    }

    /// Append a deterministic telemetry record at the lane's current
    /// instant.
    pub fn emit(&mut self, tag: &'static str, a: u64, b: u64) {
        self.records.push(LaneRecord {
            t: self.now,
            lane: self.id,
            tag,
            a,
            b,
        });
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Instant of the lane's next live firing in nanoseconds
    /// (`u64::MAX` = idle): the value the round loop caches per lane.
    fn next_ns(&mut self) -> u64 {
        self.sched.next_live_at().map_or(u64::MAX, Time::nanos)
    }

    /// Execute every pending event strictly before `bound`.
    fn exec_until(&mut self, bound: Time) {
        while let Some((at, fired)) = self.sched.pop_fired_before(bound) {
            crate::invariant!(
                at >= self.now,
                "lane {} clock went backwards: {at:?} < {:?}",
                self.id,
                self.now
            );
            self.now = at;
            self.executed += 1;
            match fired {
                Fired::OneShot(f) => f(self),
                Fired::Timer { idx, gen, mut f } => {
                    f(self);
                    if let Some(period) = self.sched.finish_timer_fire(idx, gen, f) {
                        let at = self.now.saturating_add(period);
                        let seq = self.next_seq();
                        self.sched.arm_timer(idx, at, seq);
                    }
                }
            }
        }
    }

    /// Fold one inbound cross event into the calendar and return the
    /// instant it was scheduled at. The round loop feeds a lane its
    /// events pre-sorted by `(at, src, src_seq)`, so local sequence
    /// numbers are allocated in exactly that order — the seq-allocation
    /// obligation.
    fn merge_inbound(&mut self, ev: CrossEvent<S>) -> Time {
        crate::invariant!(
            ev.at >= self.now,
            "cross event below the lookahead horizon: {:?} < lane {} now {:?}",
            ev.at,
            self.id,
            self.now
        );
        let at = ev.at.max(self.now);
        let seq = self.next_seq();
        self.cross_recv += 1;
        self.sched.schedule(at, seq, ev.f);
        at
    }
}

/// A cluster of per-host event lanes executing under conservative
/// lookahead. See the module docs for the determinism argument.
pub struct ShardWorld<S> {
    lanes: Vec<Lane<S>>,
    now: Time,
}

impl<S: 'static> ShardWorld<S> {
    /// Build a world with one lane per entry of `states`; lane `i` gets
    /// RNG stream `fork_idx(i)` of the root seed.
    pub fn new(_cfg: ShardConfig, seed: u64, states: Vec<S>) -> ShardWorld<S> {
        let root = SimRng::new(seed);
        let lanes = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| Lane {
                id: i as u32,
                now: Time::ZERO,
                seq: 0,
                executed: 0,
                rounds: 0,
                cross_sent: 0,
                cross_recv: 0,
                sched: Sched::new(),
                outbox: Vec::new(),
                records: Vec::new(),
                rng: root.fork_idx(i as u64),
                state,
            })
            .collect();
        ShardWorld {
            lanes,
            now: Time::ZERO,
        }
    }

    /// Number of lanes (simulated hosts).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The global low-water mark: every lane has reached at least this
    /// instant.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Mutable access to a lane, for seeding initial events and reading
    /// back state between runs.
    pub fn lane_mut(&mut self, i: usize) -> &mut Lane<S> {
        &mut self.lanes[i]
    }

    /// All lanes, in id order.
    pub fn lanes(&self) -> &[Lane<S>] {
        &self.lanes
    }

    /// Total callbacks executed across all lanes.
    pub fn total_executed(&self) -> u64 {
        self.lanes.iter().map(|l| l.executed).sum()
    }

    /// Per-lane residency counters (one row per lane, in id order) — the
    /// evidence behind the xr-stat lane panel.
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.lanes
            .iter()
            .map(|l| LaneStats {
                lane: l.id,
                rounds: l.rounds,
                executed: l.executed,
                cross_sent: l.cross_sent,
                cross_recv: l.cross_recv,
                records: l.records.len() as u64,
            })
            .collect()
    }

    /// Run every lane up to and including `deadline`, in lookahead
    /// rounds; afterwards all lane clocks sit exactly at `deadline`
    /// (events beyond it stay pending).
    ///
    /// A round merges the cross events sent so far, sorted by
    /// `(dst, at, src, src_seq)`, takes the global minimum `gmin` over the
    /// lanes' live heads, and runs every lane whose head lies below
    /// `bound = min(gmin + LOOKAHEAD, deadline + 1)`. `next[i]` caches lane
    /// `i`'s live head: it moves only when the owner touched the lane
    /// between calls (the cache is rebuilt per call), when a merge
    /// schedules an earlier event (lowered), or when the lane executes
    /// (refreshed once afterwards). A lane with `next[i] >= bound` is
    /// skipped, since `exec_until` would pop nothing. It must be the
    /// *live* head, not the head key: `gmin` fixes the round bounds, and
    /// those fix when merges allocate sequence numbers.
    pub fn run_until(&mut self, deadline: Time) {
        // Sends staged through `lane_mut` between calls merge first, so
        // they count toward the first round's bound.
        let mut inbound: Vec<CrossEvent<S>> = Vec::new();
        for lane in &mut self.lanes {
            inbound.append(&mut lane.outbox);
        }
        let mut next: Vec<u64> = self.lanes.iter_mut().map(Lane::next_ns).collect();
        let mut rounds = 0u64;
        loop {
            inbound.sort_unstable_by_key(|e| (e.dst, e.at, e.src, e.src_seq));
            for ev in inbound.drain(..) {
                let i = ev.dst as usize;
                next[i] = next[i].min(self.lanes[i].merge_inbound(ev).nanos());
            }
            let gmin = next.iter().copied().min().unwrap_or(u64::MAX);
            if gmin == u64::MAX || gmin > deadline.nanos() {
                break;
            }
            let bound = Time(
                gmin.saturating_add(LOOKAHEAD.as_nanos())
                    .min(deadline.nanos().saturating_add(1)),
            );
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if next[i] >= bound.nanos() {
                    continue;
                }
                lane.exec_until(bound);
                next[i] = lane.next_ns();
                inbound.append(&mut lane.outbox);
            }
            rounds += 1;
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                crate::invariant!(
                    next[i] == lane.next_ns(),
                    "lane {} head cache is stale after round {rounds}: {}",
                    lane.id,
                    next[i]
                );
            }
        }
        for lane in &mut self.lanes {
            lane.rounds += rounds;
            if lane.now < deadline {
                lane.now = deadline;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// All lane records merged in `(t, lane, emit-order)` order — the
    /// deterministic global telemetry log.
    pub fn merged_records(&self) -> Vec<LaneRecord> {
        let mut all: Vec<(LaneRecord, usize)> = self
            .lanes
            .iter()
            .flat_map(|l| l.records.iter().copied().enumerate().map(|(i, r)| (r, i)))
            .collect();
        all.sort_by_key(|(r, i)| (r.t, r.lane, *i));
        all.into_iter().map(|(r, _)| r).collect()
    }

    /// The merged record log as JSONL (one event per line).
    pub fn records_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.merged_records() {
            out.push_str(&format!(
                "{{\"t\":{},\"lane\":{},\"ev\":\"{}\",\"a\":{},\"b\":{}}}\n",
                r.t.nanos(),
                r.lane,
                r.tag,
                r.a,
                r.b
            ));
        }
        out
    }
}

impl<S: std::fmt::Debug + 'static> ShardWorld<S> {
    /// Everything observable about the run, serialized: per-lane clocks,
    /// sequence counters, execution counts and model state, plus the
    /// merged record log. Byte-identical for the same seed — the property
    /// `tests/sharding.rs` pins.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for l in &self.lanes {
            out.push_str(&format!(
                "lane={} now={} seq={} executed={} state={:?}\n",
                l.id,
                l.now.nanos(),
                l.seq,
                l.executed,
                l.state
            ));
        }
        out.push_str(&self.records_jsonl());
        out
    }
}

// ---------------------------------------------------------------------------
// Reference workload: a keepalive-laden incast, the model whose digest
// tests/sharding.rs pins.
// ---------------------------------------------------------------------------

/// Per-host counters of the [`incast`] model.
#[derive(Clone, Debug, Default)]
pub struct IncastState {
    pub sent: u64,
    pub delivered: u64,
    pub replies: u64,
    pub bytes: u64,
    pub keepalives: u64,
}

/// Build the reference incast: host 0 is the sink, every other host
/// pipelines request/reply RPCs into it while all hosts run local
/// keepalive ticks (the X-RDMA per-connection heartbeat pattern — the
/// bulk of event volume). Seeded events only; call
/// [`ShardWorld::run_until`] to run.
pub fn incast(nodes: usize, seed: u64) -> ShardWorld<IncastState> {
    assert!(nodes >= 2, "incast needs a sink and at least one client");
    let mut w = ShardWorld::new(
        ShardConfig::default(),
        seed,
        vec![IncastState::default(); nodes],
    );
    for id in 0..nodes {
        let lane = w.lane_mut(id);
        // Keepalive tick with a per-lane co-prime-ish period so firings
        // spread across wheel buckets instead of pulsing.
        let period = Dur::nanos(7_900 + (id as u64 * 131) % 1_024);
        lane.start_periodic(period, |l| {
            l.state.keepalives += 1;
        });
        if id > 0 {
            let jitter = lane.rng.next_below(2_000);
            lane.schedule_at(Time(1 + jitter), request_pump);
        }
    }
    w
}

/// One client request → sink delivery → service → reply → think → next
/// request. All cross-lane delays are ≥ two hops, honoring the horizon.
fn request_pump(lane: &mut Lane<IncastState>) {
    let src = lane.id();
    let req = lane.state.sent;
    lane.state.sent += 1;
    let size = 1_024 + lane.rng.next_below(48 * 1_024);
    lane.state.bytes += size;
    lane.emit("tx", src as u64, req);
    let sent_at = lane.now().nanos();
    let hop = Dur::nanos(2 * HOP_NS + lane.rng.next_below(300));
    lane.send_to(0, hop, move |sink| {
        sink.state.delivered += 1;
        sink.state.bytes += size;
        sink.emit("rx", src as u64, req);
        let svc = Dur::nanos(400 + sink.rng.next_below(1_200));
        sink.schedule_in(svc, move |sink| {
            let hop = Dur::nanos(2 * HOP_NS + sink.rng.next_below(300));
            sink.send_to(src, hop, move |client| {
                client.state.replies += 1;
                client.emit("done", req, client.now().nanos().saturating_sub(sent_at));
                let think = Dur::nanos(1_000 + client.rng.next_below(6_000));
                client.schedule_in(think, request_pump);
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_at(nodes: usize, seed: u64, until: Dur) -> String {
        let mut w = incast(nodes, seed);
        w.run_until(Time(until.as_nanos()));
        w.digest()
    }

    #[test]
    fn seeds_differ() {
        let a = digest_at(6, 1, Dur::micros(200));
        let b = digest_at(6, 2, Dur::micros(200));
        assert_ne!(a, b, "seed must matter");
    }

    #[test]
    fn resumable_runs_match_single_run() {
        let mut a = incast(5, 7);
        a.run_until(Time(100_000));
        a.run_until(Time(200_000));
        let mut b = incast(5, 7);
        b.run_until(Time(200_000));
        assert_eq!(a.digest(), b.digest(), "run_until must be resumable");
    }

    #[test]
    fn lanes_all_reach_deadline() {
        let mut w = incast(7, 11);
        w.run_until(Time(250_000));
        for l in w.lanes() {
            assert_eq!(l.now(), Time(250_000), "lane {} starved", l.id());
        }
        assert!(w.total_executed() > 100, "did real work");
    }

    #[test]
    fn cross_events_never_beat_the_horizon() {
        // Every "done" record carries the request RTT in `b`; it can
        // never be below two cross-lane hops (2 × 2 × HOP_NS).
        let mut w = incast(6, 13);
        w.run_until(Time(300_000));
        for r in w.merged_records() {
            if r.tag == "done" {
                assert!(
                    r.b >= 2 * 2 * HOP_NS,
                    "RTT {} below the two-round-trip-hop floor",
                    r.b
                );
            }
        }
    }

    #[test]
    fn local_cancel_works_on_lanes() {
        let mut w = ShardWorld::new(ShardConfig::default(), 3, vec![0u64, 0u64]);
        let lane = w.lane_mut(0);
        let id = lane.schedule_at(Time(500), |l| l.state += 1);
        lane.schedule_at(Time(600), |l| l.state += 10);
        lane.cancel(id);
        w.run_until(Time(1_000));
        assert_eq!(w.lanes()[0].state, 10);
        assert_eq!(w.total_executed(), 1);
    }

    /// 64 lanes, two of them ping-ponging: the round loop skips the idle
    /// 62, which must be unobservable apart from their `executed == 0`.
    #[test]
    fn sparse_activity_skips_idle_lanes_unobservably() {
        fn ping(l: &mut Lane<u64>) {
            l.state += 1;
            l.emit("ping", l.state, 0);
            let peer = if l.id() == 7 { 40 } else { 7 };
            l.send_to(peer, Dur::nanos(1_300), ping);
        }
        let mut w = ShardWorld::new(ShardConfig::default(), 5, vec![0u64; 64]);
        w.lane_mut(7).schedule_at(Time(10), ping);
        w.lane_mut(40)
            .start_periodic(Dur::nanos(700), |l| l.state += 1_000);
        w.run_until(Time(50_000));
        let stats = w.lane_stats();
        assert!(stats[0].rounds > 30, "rounds ran: {}", stats[0].rounds);
        for s in &stats {
            assert_eq!(s.rounds, stats[0].rounds, "lane {} rounds", s.lane);
            let active = s.lane == 7 || s.lane == 40;
            assert_eq!(s.executed > 0, active, "lane {} executed", s.lane);
        }
        for l in w.lanes() {
            assert_eq!(l.now(), Time(50_000), "lane {} starved", l.id());
        }
    }

    /// The cached head must be the *live* head. A cross event landing
    /// exactly on a round bound (t=1100) cancels its lane's head (t=2500,
    /// beyond that round's bound, so the stale key stays in the calendar).
    /// Were the stale key to count as the lane's minimum, the next round
    /// would be cut at 3500 instead of 4000, `z` would run a round later
    /// and the second cross event would take its `seq` before `w`.
    #[test]
    fn cancelled_head_does_not_move_round_bounds() {
        let mut w = ShardWorld::new(ShardConfig::default(), 1, vec![(); 8]);
        let lane = w.lane_mut(5);
        let head = lane.schedule_at(Time(2_500), |l| l.emit("head", 0, 0));
        lane.schedule_at(Time(4_000), |l| l.emit("y", 0, 0));
        lane.schedule_at(Time(3_700), |l| {
            l.emit("z", 0, 0);
            l.schedule_in(Dur::nanos(300), |l| l.emit("w", 0, 0));
        });
        let lane = w.lane_mut(0);
        lane.schedule_at(Time(100), move |l| {
            l.send_to(5, Dur::nanos(1_000), move |l| {
                l.cancel(head);
                l.emit("c1", 0, 0);
            });
        });
        lane.schedule_at(Time(3_000), |l| {
            l.send_to(5, Dur::nanos(1_000), |l| l.emit("c2", 0, 0));
        });
        w.run_until(Time(10_000));
        let order: Vec<(u64, &str)> = w
            .merged_records()
            .iter()
            .map(|r| (r.t.nanos(), r.tag))
            .collect();
        assert_eq!(
            order,
            [
                (1_100, "c1"),
                (3_700, "z"),
                (4_000, "y"),
                (4_000, "w"),
                (4_000, "c2")
            ]
        );
        assert_eq!(w.lane_stats()[5].rounds, 4);
    }

    /// The head cache lives for one `run_until`: whatever the owner does
    /// to a lane through `lane_mut` between two calls takes effect,
    /// including a cross send staged there. The send must arrive whether
    /// the world is busy, idle, or has its only head past the deadline.
    #[test]
    fn lane_mut_between_runs_reaches_idle_lanes() {
        // (periodic tick on lane 0, local event on lane 3, expected state)
        let cases = [
            (Some(900), Some(12_000), 11),
            (None, None, 10),
            (None, Some(25_000), 10),
        ];
        for (tick, local, want) in cases {
            let mut w = ShardWorld::new(ShardConfig::default(), 9, vec![0u64; 4]);
            if let Some(period) = tick {
                w.lane_mut(0)
                    .start_periodic(Dur::nanos(period), |l| l.state += 1);
            }
            w.run_until(Time(10_000));
            assert_eq!(w.lanes()[3].executed(), 0, "lane 3 idle so far");
            if let Some(at) = local {
                w.lane_mut(3).schedule_at(Time(at), |l| l.state += 1);
            }
            w.lane_mut(2)
                .send_to(3, Dur::nanos(2_000), |l| l.state += 10);
            w.run_until(Time(20_000));
            let case = format!("tick={tick:?} local={local:?}");
            assert_eq!(w.lanes()[3].state, want, "{case}");
            assert_eq!(w.lanes()[2].cross_sent(), 1, "{case}");
            assert_eq!(w.lanes()[3].cross_recv(), 1, "{case}");
        }
    }

    /// Residency counters of the reference incast, captured on the commit
    /// before the active-lane round loop: none of them may drift.
    #[test]
    fn incast_lane_stats_are_pinned() {
        let mut w = incast(9, 42);
        w.run_until(Time(300_000));
        let got: Vec<_> = w
            .lane_stats()
            .iter()
            .map(|s| (s.rounds, s.executed, s.cross_sent, s.cross_recv, s.records))
            .collect();
        assert_eq!(
            got,
            [
                (259, 688, 325, 326, 326),
                (259, 117, 40, 40, 80),
                (259, 116, 40, 40, 80),
                (259, 120, 42, 42, 84),
                (259, 115, 40, 40, 80),
                (259, 117, 41, 41, 82),
                (259, 114, 40, 40, 80),
                (259, 118, 42, 42, 84),
                (259, 118, 41, 40, 81),
            ]
        );
    }
}
