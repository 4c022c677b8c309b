//! Sharded parallel event lanes with conservative lookahead
//! (DESIGN.md §3.15).
//!
//! A [`ShardWorld`] partitions a simulated cluster into per-host event
//! [`Lane`]s — each a miniature single-threaded world running the same
//! timer-wheel calendar as [`crate::World`] — and executes them in
//! *rounds* bounded by conservative lookahead: every lane may safely run
//! all events strictly before `bound = global_min_pending + L`, where
//! `L` is the minimum cross-lane link latency (the ≈500 ns/hop floor —
//! two hops through a ToR, so 1 µs by default). Cross-lane interactions
//! must travel as messages with delay ≥ `L`, so anything a lane sends
//! while executing below `bound` arrives at `sender_now + L ≥ bound` —
//! never inside the round that produced it.
//!
//! # Determinism across shard counts and thread interleavings
//!
//! The byte-identical contract (DESIGN.md §7) must hold no matter how
//! many shards or worker threads execute the lanes. Three rules deliver
//! it:
//!
//! * **Lane granularity is fixed by topology, not by shard count.** One
//!   lane per simulated host, always; shards are only contiguous
//!   groupings of lanes onto workers (adjacent lane ids — same-ToR
//!   hosts — share a shard). Changing `shards` changes which thread
//!   runs a lane, never which lane owns an event.
//! * **Mailbox merge rule.** Cross-lane events always go through a
//!   per-`(dst_shard, src_shard)` mailbox — even when source and
//!   destination share a shard — and are folded into the destination
//!   calendar only at a round boundary, sorted by
//!   `(at, src_lane, src_seq)`. `src_seq` is the sender's monotone
//!   per-lane sequence counter, so the sort key is unique and the merge
//!   order is a pure function of simulation state.
//! * **Seq-allocation obligation.** A lane's local sequence numbers are
//!   allocated only (a) during its own (serial, deterministic) event
//!   execution and (b) during mailbox merges, which happen at globally
//!   agreed round boundaries in the sorted order above. Hence the
//!   `(at, seq)` calendar order inside every lane is identical for any
//!   shard count ≥ 1 and any thread schedule.
//!
//! The round loop itself is one function, [`worker`], run inline when
//! `shards == 1` (the serial degenerate case: zero threads, zero locks
//! taken under contention) and on `std::thread::scope` workers — one
//! per shard, over disjoint `&mut` lane slices — otherwise. Workers
//! synchronize on a [`RoundBarrier`]; the reduction of per-shard minima
//! into the round bound is computed by whichever worker the barrier
//! elects leader, from the same atomics, so the result does not depend
//! on the election. A worker caches each lane's next live instant, so a
//! round costs O(lanes with work below the bound): idle lanes are
//! neither peeked nor visited (see [`worker`]).
//!
//! # Send-state contract
//!
//! Lane state is plain owned data: no `Rc`, no `RefCell`, no raw
//! pointers (S1 `non-send-shard-state` enforces this on every `*Lane`
//! type), no thread-local singletons (S2), and closures stored in a
//! lane calendar are `FnOnce(&mut Lane<S>) + Send`. Telemetry is a
//! per-lane record log merged deterministically after the run; RNG is a
//! per-lane [`SimRng`] forked by lane id from the run seed.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::rng::SimRng;
use crate::sched::{EventId, Fired, Sched};
use crate::time::{Dur, Time};

/// One-shot lane callback.
pub type LaneFn<S> = Box<dyn FnOnce(&mut Lane<S>) + Send>;
/// Re-armable (periodic) lane callback.
pub type LaneTimerFn<S> = Box<dyn FnMut(&mut Lane<S>) + Send>;

/// How a [`ShardWorld`] is partitioned and synchronized.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Worker shards. Lanes are split into `shards` contiguous blocks;
    /// `1` runs the identical round algorithm inline with no threads.
    pub shards: usize,
    /// Conservative lookahead `L`: the minimum cross-lane delay. The
    /// default is two 500 ns hops (host → ToR → host).
    pub lookahead: Dur,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 1,
            lookahead: Dur::nanos(2 * 500),
        }
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
/// how many callbacks it executed, and its mailbox traffic in both
/// directions. All are pure functions of simulation state — identical
/// across shard counts and thread interleavings.
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
/// merge never depends on mailbox arrival order.
struct CrossEvent<S> {
    at: Time,
    dst: u32,
    src: u32,
    src_seq: u64,
    f: LaneFn<S>,
}

/// A per-host event lane: a miniature world with its own clock, sequence
/// counter, timer-wheel calendar, RNG stream, telemetry log, and model
/// state `S`. Everything is plain owned data — `Lane<S>: Send` whenever
/// `S: Send` — per the S1 shard-state lint contract.
pub struct Lane<S> {
    id: u32,
    now: Time,
    seq: u64,
    executed: u64,
    rounds: u64,
    cross_sent: u64,
    cross_recv: u64,
    lookahead: Dur,
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

    /// Lookahead rounds this lane has participated in. Round counts are a
    /// pure function of simulation state (the bound sequence is computed
    /// from global minima), so this is identical across shard counts.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cross-lane events this lane has sent (mailbox sends).
    pub fn cross_sent(&self) -> u64 {
        self.cross_sent
    }

    /// Cross-lane events merged into this lane (mailbox receives).
    pub fn cross_recv(&self) -> u64 {
        self.cross_recv
    }

    /// Live pending firings on this lane's calendar.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// Schedule a local event at absolute time `at` (clamped to `now`).
    pub fn schedule_at(
        &mut self,
        at: Time,
        f: impl FnOnce(&mut Lane<S>) + Send + 'static,
    ) -> EventId {
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
    pub fn schedule_in(
        &mut self,
        d: Dur,
        f: impl FnOnce(&mut Lane<S>) + Send + 'static,
    ) -> EventId {
        self.schedule_at(self.now.saturating_add(d), f)
    }

    /// Cancel a pending local event (O(1), generation-checked no-op when
    /// already fired).
    pub fn cancel(&mut self, id: EventId) {
        self.sched.cancel(id);
    }

    /// Start a self-re-arming periodic callback (fire-and-forget; the
    /// keepalive-tick idiom). First firing after `period`.
    pub fn start_periodic(&mut self, period: Dur, f: impl FnMut(&mut Lane<S>) + Send + 'static) {
        let idx = self.sched.make_timer(Some(period), Box::new(f));
        let at = self.now.saturating_add(period);
        let seq = self.next_seq();
        self.sched.arm_timer(idx, at, seq);
    }

    /// Send a cross-lane event: run `f` on lane `dst` after `delay`.
    ///
    /// `delay` must be at least the configured lookahead `L` — that is
    /// the conservative-synchronization contract that lets shards run a
    /// whole round without hearing from each other. Checked under
    /// `debug_invariants` (and always clamped, so release builds stay
    /// deterministic rather than subtly early).
    pub fn send_to(&mut self, dst: u32, delay: Dur, f: impl FnOnce(&mut Lane<S>) + Send + 'static) {
        crate::invariant!(
            delay >= self.lookahead,
            "lane {} cross-send below the lookahead horizon: {delay:?} < {:?}",
            self.id,
            self.lookahead
        );
        let delay = delay.max(self.lookahead);
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

/// A reusable sense-counting barrier that, unlike `std::sync::Barrier`,
/// can be *poisoned*: when a worker panics mid-round (an `invariant!`
/// firing inside lane code), its peers unblock and panic too instead of
/// parking forever — a deadlocked differential test tells you nothing,
/// a propagated panic dumps the diverging event. Yield-spinning is fine
/// here: rounds are short and workers ≤ cores is the expected shape.
struct RoundBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl RoundBarrier {
    fn new(n: usize) -> RoundBarrier {
        RoundBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Block until all `n` workers arrive; returns `true` for exactly
    /// one of them (the round leader). Panics if a peer poisoned the
    /// barrier.
    fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            true
        } else {
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Relaxed) {
                    panic!("a peer lane worker panicked; see its message above");
                }
                std::thread::yield_now();
            }
            false
        }
    }
}

/// Poisons the barrier if dropped during an unwind, so a panic in one
/// worker fails the whole run loudly instead of deadlocking peers.
struct PoisonOnPanic<'a>(&'a RoundBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

/// Round bookkeeping shared by all workers of one `run_until` call.
struct RoundShared {
    barrier: RoundBarrier,
    /// Per-shard minimum pending instant (`u64::MAX` = shard is idle).
    mins: Vec<AtomicU64>,
    /// Exclusive execution bound for the current round, in nanoseconds.
    bound: AtomicU64,
    done: AtomicBool,
}

/// The round loop, identical for the inline (`shards == 1`) and threaded
/// paths. `lanes` is this worker's contiguous slice, `base` the global
/// index of its first lane.
///
/// A round costs O(lanes with work), not O(lanes) (DESIGN.md §3.15):
/// `next[i]` caches lane `i`'s `next_live_at()`. A lane's live head moves
/// in only three ways — its owner touched it between `run_until` calls
/// (the cache is rebuilt per call), a merge scheduled an earlier cross
/// event (lowered), or the lane executed (refreshed once afterwards) — so
/// the shard minimum is a min over the array, and a lane with
/// `next[i] >= bound` is skipped: `exec_until` would pop nothing. It must
/// be the *live* head, not the head key: the global minimum fixes the
/// round bounds, and those fix when merges allocate sequence numbers.
#[allow(clippy::too_many_arguments)]
fn worker<S: Send + 'static>(
    shard: usize,
    shards: usize,
    lanes: &mut [Lane<S>],
    base: usize,
    shard_of: &[u32],
    mailboxes: &[Mutex<Vec<CrossEvent<S>>>],
    shared: &RoundShared,
    deadline: Time,
    lookahead: Dur,
) {
    let _poison = PoisonOnPanic(&shared.barrier);
    let mut inbound: Vec<CrossEvent<S>> = Vec::new();
    let mut outbound: Vec<Vec<CrossEvent<S>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut next: Vec<u64> = lanes.iter_mut().map(Lane::next_ns).collect();
    let mut rounds = 0u64;
    loop {
        // Phase A — merge: drain this shard's mailboxes (fixed src-shard
        // order; ordering is irrelevant because the sort key is unique),
        // fold into destination lanes, then publish the shard's minimum.
        for src in 0..shards {
            let mut mb = mailboxes[shard * shards + src].lock().expect("mailbox");
            inbound.append(&mut mb);
        }
        inbound.sort_unstable_by_key(|e| (e.dst, e.at, e.src, e.src_seq));
        for ev in inbound.drain(..) {
            let i = ev.dst as usize - base;
            next[i] = next[i].min(lanes[i].merge_inbound(ev).nanos());
        }
        let min = next.iter().copied().min().unwrap_or(u64::MAX);
        shared.mins[shard].store(min, Ordering::Relaxed);

        // Phase B — bound: one worker (whichever the barrier elects)
        // reduces the minima; the result is a pure function of the
        // atomics, so the election does not matter.
        if shared.barrier.wait() {
            let gmin = shared
                .mins
                .iter()
                .map(|m| m.load(Ordering::Relaxed))
                .min()
                .unwrap_or(u64::MAX);
            if gmin == u64::MAX || gmin > deadline.nanos() {
                shared.done.store(true, Ordering::Relaxed);
            } else {
                let bound = gmin
                    .saturating_add(lookahead.as_nanos().max(1))
                    .min(deadline.nanos().saturating_add(1));
                shared.bound.store(bound, Ordering::Relaxed);
            }
        }
        shared.barrier.wait();
        if shared.done.load(Ordering::Relaxed) {
            // Every lane sat in every round, executed or skipped.
            for lane in lanes.iter_mut() {
                lane.rounds += rounds;
            }
            return;
        }
        let bound = Time(shared.bound.load(Ordering::Relaxed));

        // Phase C — execute: every lane with work below the bound runs
        // serially; cross sends stage in lane outboxes and flush to the
        // pair mailboxes for the next round's merge. The first round
        // visits every lane, flushing sends staged through `lane_mut`.
        for (i, lane) in lanes.iter_mut().enumerate() {
            if next[i] >= bound.nanos() && rounds > 0 {
                continue;
            }
            lane.exec_until(bound);
            next[i] = lane.next_ns();
            for ev in lane.outbox.drain(..) {
                outbound[shard_of[ev.dst as usize] as usize].push(ev);
            }
        }
        rounds += 1;
        for (i, lane) in lanes.iter_mut().enumerate() {
            crate::invariant!(
                next[i] == lane.next_ns(),
                "lane {} head cache is stale after round {rounds}: {}",
                lane.id,
                next[i]
            );
        }
        for (dst_shard, evs) in outbound.iter_mut().enumerate() {
            if evs.is_empty() {
                continue;
            }
            let mut mb = mailboxes[dst_shard * shards + shard]
                .lock()
                .expect("mailbox");
            mb.append(evs);
        }
        // Flush barrier: nobody drains a round-N+1 mailbox until every
        // shard has finished writing its round-N cross sends. Without
        // this, a fast shard could merge-and-advance past an event a
        // slow shard was still flushing — the classic straggler race.
        shared.barrier.wait();
    }
}

/// A cluster of per-host event lanes executing under conservative
/// lookahead. See the module docs for the determinism argument.
pub struct ShardWorld<S> {
    lanes: Vec<Lane<S>>,
    cfg: ShardConfig,
    now: Time,
}

impl<S: Send + 'static> ShardWorld<S> {
    /// Build a world with one lane per entry of `states`; lane `i` gets
    /// RNG stream `fork_idx(i)` of the root seed.
    pub fn new(cfg: ShardConfig, seed: u64, states: Vec<S>) -> ShardWorld<S> {
        assert!(cfg.lookahead.as_nanos() > 0, "lookahead must be positive");
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
                lookahead: cfg.lookahead,
                sched: Sched::new(),
                outbox: Vec::new(),
                records: Vec::new(),
                rng: root.fork_idx(i as u64),
                state,
            })
            .collect();
        ShardWorld {
            lanes,
            cfg,
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
    /// imbalance evidence behind the xr-stat lane panel and the sharding
    /// battery's lane-utilization bound. Deterministic across shard counts.
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

    /// Shard index of each lane: `shards` contiguous blocks, fixed by
    /// `(lane_count, shards)` alone — deterministic from topology.
    fn partition(&self, shards: usize) -> Vec<usize> {
        let n = self.lanes.len();
        (0..=shards).map(|s| s * n / shards).collect()
    }

    /// Run every lane up to and including `deadline`, in lookahead
    /// rounds; afterwards all lane clocks sit exactly at `deadline`
    /// (events beyond it stay pending).
    pub fn run_until(&mut self, deadline: Time) {
        let shards = self.cfg.shards.clamp(1, self.lanes.len().max(1));
        let bounds = self.partition(shards);
        let mut shard_of = vec![0u32; self.lanes.len()];
        for s in 0..shards {
            for lane in shard_of.iter_mut().take(bounds[s + 1]).skip(bounds[s]) {
                *lane = s as u32;
            }
        }
        let mailboxes: Vec<Mutex<Vec<CrossEvent<S>>>> = (0..shards * shards)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let shared = RoundShared {
            barrier: RoundBarrier::new(shards),
            mins: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            bound: AtomicU64::new(0),
            done: AtomicBool::new(false),
        };
        let lookahead = self.cfg.lookahead;
        if shards == 1 {
            worker(
                0,
                1,
                &mut self.lanes,
                0,
                &shard_of,
                &mailboxes,
                &shared,
                deadline,
                lookahead,
            );
        } else {
            // Split the lane vec into disjoint per-shard &mut slices.
            let mut slices: Vec<(usize, usize, &mut [Lane<S>])> = Vec::with_capacity(shards);
            let mut rest: &mut [Lane<S>] = &mut self.lanes;
            let mut off = 0usize;
            for s in 0..shards {
                let take = bounds[s + 1] - bounds[s];
                let (head, tail) = rest.split_at_mut(take);
                slices.push((s, off, head));
                rest = tail;
                off += take;
            }
            let shard_of = &shard_of;
            let mailboxes = &mailboxes;
            let shared = &shared;
            std::thread::scope(|scope| {
                for (s, base, chunk) in slices {
                    scope.spawn(move || {
                        worker(
                            s, shards, chunk, base, shard_of, mailboxes, shared, deadline,
                            lookahead,
                        );
                    });
                }
            });
        }
        for lane in &mut self.lanes {
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

impl<S: Send + std::fmt::Debug + 'static> ShardWorld<S> {
    /// Everything observable about the run, serialized: per-lane clocks,
    /// sequence counters, execution counts and model state, plus the
    /// merged record log. Byte-identical across shard counts and thread
    /// interleavings for the same seed — the property `tests/sharding.rs`
    /// enforces.
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
// Reference workload: a keepalive-laden incast, the model the
// differential battery in tests/sharding.rs runs at every shard count.
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

/// Nanoseconds per fabric hop (the ≈500 ns floor from the paper's rack
/// RTTs); cross-lane messages traverse two hops (host → ToR → host).
pub const HOP_NS: u64 = 500;

/// Build the reference incast: host 0 is the sink, every other host
/// pipelines request/reply RPCs into it while all hosts run local
/// keepalive ticks (the X-RDMA per-connection heartbeat pattern — the
/// bulk of event volume, and exactly the work that parallelizes across
/// lanes). Seeded events only; call [`ShardWorld::run_until`] to run.
pub fn incast(nodes: usize, shards: usize, seed: u64) -> ShardWorld<IncastState> {
    assert!(nodes >= 2, "incast needs a sink and at least one client");
    let cfg = ShardConfig {
        shards,
        lookahead: Dur::nanos(2 * HOP_NS),
    };
    let mut w = ShardWorld::new(cfg, seed, vec![IncastState::default(); nodes]);
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

    fn digest_at(nodes: usize, shards: usize, seed: u64, until: Dur) -> String {
        let mut w = incast(nodes, shards, seed);
        w.run_until(Time(until.as_nanos()));
        w.digest()
    }

    #[test]
    fn shard_counts_agree_byte_for_byte() {
        let base = digest_at(9, 1, 42, Dur::micros(300));
        for shards in [2usize, 3, 4, 8] {
            let d = digest_at(9, shards, 42, Dur::micros(300));
            assert_eq!(base, d, "shards={shards} diverged from serial");
        }
        assert!(base.contains("\"ev\":\"done\""), "RPCs completed: {base}");
    }

    #[test]
    fn seeds_differ() {
        let a = digest_at(6, 2, 1, Dur::micros(200));
        let b = digest_at(6, 2, 2, Dur::micros(200));
        assert_ne!(a, b, "seed must matter");
    }

    #[test]
    fn resumable_runs_match_single_run() {
        let mut a = incast(5, 4, 7);
        a.run_until(Time(100_000));
        a.run_until(Time(200_000));
        let mut b = incast(5, 4, 7);
        b.run_until(Time(200_000));
        assert_eq!(a.digest(), b.digest(), "run_until must be resumable");
    }

    #[test]
    fn lanes_all_reach_deadline() {
        let mut w = incast(7, 3, 11);
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
        let mut w = incast(6, 2, 13);
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
        let run = |shards: usize| {
            let cfg = ShardConfig {
                shards,
                ..Default::default()
            };
            let mut w = ShardWorld::new(cfg, 5, vec![0u64; 64]);
            w.lane_mut(7).schedule_at(Time(10), ping);
            w.lane_mut(40)
                .start_periodic(Dur::nanos(700), |l| l.state += 1_000);
            w.run_until(Time(50_000));
            w
        };
        let base = run(1);
        let stats = base.lane_stats();
        assert!(stats[0].rounds > 30, "rounds ran: {}", stats[0].rounds);
        for s in &stats {
            assert_eq!(s.rounds, stats[0].rounds, "lane {} rounds", s.lane);
            let active = s.lane == 7 || s.lane == 40;
            assert_eq!(s.executed > 0, active, "lane {} executed", s.lane);
        }
        for l in base.lanes() {
            assert_eq!(l.now(), Time(50_000), "lane {} starved", l.id());
        }
        for shards in [2usize, 4, 8] {
            let w = run(shards);
            assert_eq!(base.digest(), w.digest(), "shards={shards} digest");
            assert_eq!(stats, w.lane_stats(), "shards={shards} lane_stats");
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
        let run = |shards: usize| {
            let cfg = ShardConfig {
                shards,
                ..Default::default()
            };
            let mut w = ShardWorld::new(cfg, 1, vec![(); 8]);
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
            w
        };
        let base = run(1);
        let order: Vec<(u64, &str)> = base
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
        assert_eq!(base.lane_stats()[5].rounds, 4);
        for shards in [2usize, 4, 8] {
            let w = run(shards);
            assert_eq!(base.digest(), w.digest(), "shards={shards} digest");
            assert_eq!(base.lane_stats(), w.lane_stats(), "shards={shards}");
        }
    }

    /// The head cache lives for one `run_until`: whatever the owner does
    /// to an idle lane through `lane_mut` between two calls takes effect.
    #[test]
    fn lane_mut_between_runs_reaches_idle_lanes() {
        for shards in [1usize, 2, 4] {
            let cfg = ShardConfig {
                shards,
                ..Default::default()
            };
            let mut w = ShardWorld::new(cfg, 9, vec![0u64; 4]);
            w.lane_mut(0)
                .start_periodic(Dur::nanos(900), |l| l.state += 1);
            w.run_until(Time(10_000));
            assert_eq!(w.lanes()[3].executed(), 0, "lane 3 idle so far");
            w.lane_mut(3).schedule_at(Time(12_000), |l| l.state += 1);
            w.lane_mut(2)
                .send_to(3, Dur::nanos(2_000), |l| l.state += 10);
            w.run_until(Time(20_000));
            assert_eq!(w.lanes()[3].state, 11, "shards={shards}");
            assert_eq!(w.lanes()[2].cross_sent(), 1);
            assert_eq!(w.lanes()[3].cross_recv(), 1);
        }
    }

    /// Residency counters of the reference incast, captured on the commit
    /// before the active-lane round loop: none of them may drift.
    #[test]
    fn incast_lane_stats_are_pinned() {
        let mut w = incast(9, 1, 42);
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
