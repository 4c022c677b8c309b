//! The calendar + slab scheduler core shared by [`crate::World`] (the
//! `Rc`-based serial world) and [`crate::shard::ShardWorld`] (the
//! `Send` parallel lane engine).
//!
//! Everything here is generic over the stored closure types `O`
//! (one-shot) and `M` (re-armable timer), so the same timer-wheel
//! calendar executes identically whether the callbacks capture `Rc`s on
//! one thread or are `Send` closures running inside a shard lane. The
//! structure is a plain `&mut self` state machine: virtual-clock and
//! sequence-number policy stay with the owner (`World` keeps them in
//! `Cell`s, a lane keeps them as plain fields), which is what lets lane
//! state satisfy the S1 `non-send-shard-state` lint with no interior
//! mutability at all.
//!
//! # Calendar layout (DESIGN.md §3)
//!
//! Pending events are 24-byte `(at, seq, slot, gen)` keys held in one of
//! four places:
//!
//! * **current** — every key whose bucket the wheel cursor has reached, as
//!   a *run*: a `Vec` sorted in descending order, so the minimum is the
//!   tail and a pop is `Vec::pop`. A refill sorts the reached bucket once.
//!   A key pushed at or behind the cursor walks at most [`RUN_SCAN`] keys
//!   up from the tail to find its slot (DESIGN.md §3.19).
//! * **late** — a side binary heap for the reached keys that would have
//!   landed deeper than that in the run. Pops take the smaller of the
//!   run's tail and `late`'s top. Only a dense bucket fills it; it is
//!   usually empty.
//! * **near wheel** — `WHEEL_SLOTS` buckets, each covering `BUCKET_NS`
//!   nanoseconds (horizon ≈ 1 ms: where keepalive, DCQCN and retransmit
//!   timers live). A bucket is an unordered linked list: `heads` holds one
//!   `u32` per bucket and all nodes share one `pool` recycled through a
//!   free list, so scheduling into the horizon is a pool-slot write plus a
//!   head write and a near-empty calendar costs about a kilobyte. Order
//!   inside a bucket is irrelevant: a reached bucket moves wholesale into
//!   `current`, which the refill sorts by `(at, seq)`.
//! * **overflow** — a binary min-heap for keys beyond the horizon; they
//!   migrate into the wheel as the cursor advances.
//!
//! The FIFO-at-equal-instant proof obligation: every key is ordered by
//! `(at, seq)` and `seq` is globally unique and monotone, so the pop order
//! is correct iff `min(current ∪ late) ≤ min(wheel ∪ overflow)` whenever
//! `current ∪ late` is non-empty. That invariant holds because (a)
//! `current` and `late` only receive whole buckets the cursor has reached
//! plus direct inserts at or behind the cursor, (b) every bucket holds
//! keys of exactly one future cursor tick, and (c) the overflow heap only
//! holds keys at least one full rotation ahead of the cursor
//! (re-established by the migration loop each time the cursor moves).
//! `world::tests::wheel_matches_reference` checks the pop order against a
//! plain `BinaryHeap` oracle.
//!
//! Cancellation never searches the calendar: each slab slot carries a
//! generation counter, a key is live iff its generation matches, and stale
//! keys are discarded when popped.
//!
//! # Delay lines (DESIGN.md §3.17)
//!
//! Beside the calendar a scheduler holds any number of *delay lines*: a
//! FIFO of `(at, seq)` keys per constant delay, sorted by construction.
//! [`Sched::pop_next`] is the merge — `bound = min(line heads, deadline)`,
//! pop the calendar while its live head is below `bound`, else fire the
//! earliest line head — so the pop sequence is still the global
//! `(at, seq)` order. A line owns its handler: `pop_next` hands it out as
//! [`Next::Line`] and [`Sched::finish_line_fire`] puts it back. Only the
//! serial world opens lines; a lane engine's `Sched` has none and pops
//! through [`Sched::pop_fired_before`], whose [`Fired`] has no line
//! variant.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{Dur, Time};

/// log2 of the span one near-wheel bucket covers (4096 ns).
pub(crate) const BUCKET_BITS: u32 = 12;
/// Nanoseconds per near-wheel bucket.
pub(crate) const BUCKET_NS: u64 = 1 << BUCKET_BITS;
/// Number of near-wheel buckets; horizon = `WHEEL_SLOTS * BUCKET_NS` ≈ 1 ms.
pub(crate) const WHEEL_SLOTS: usize = 256;
/// High bit of `Key::slot`: set for timer slots, clear for one-shot events.
pub(crate) const TIMER_BIT: u32 = 1 << 31;
/// Most keys a push at or behind the cursor walks past, and so shifts, to
/// find its slot in the run; a key that would land deeper goes to
/// `WheelCal::late`. Without the bound a dense bucket (4096 periodic timers
/// inside one tick) shifts thousands of keys per insert.
pub(crate) const RUN_SCAN: usize = 32;

/// Handle to a scheduled one-shot event, usable to cancel it before it
/// fires.
///
/// The id encodes `(slot, generation)`; slots are recycled but generations
/// make every id logically unique, so cancelling an already-fired or
/// already-cancelled event is a harmless no-op.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    pub(crate) fn pack(slot: u32, gen: u32) -> EventId {
        EventId(((slot as u64) << 32) | gen as u64)
    }

    pub(crate) fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// A calendar entry: everything needed to order and validate one firing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Key {
    pub(crate) at: Time,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

// Total order by (at, seq): seq is unique, so same-instant keys fire in
// insertion (FIFO) order. That guarantee is what makes whole-world runs
// reproducible.
impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[inline]
fn tick_of(at: Time) -> u64 {
    at.0 / BUCKET_NS
}

/// End of a bucket list or of the free list in [`WheelCal::pool`].
const NIL: u32 = u32::MAX;

/// Timer-wheel calendar state.
pub(crate) struct WheelCal {
    /// The bucket tick the cursor last drained; `current` and `late` hold
    /// every key at or behind it.
    cursor: u64,
    /// Keys the cursor has reached, sorted descending: the tail is the
    /// minimum.
    current: Vec<Key>,
    /// Reached keys whose slot in `current` lay more than [`RUN_SCAN`] up
    /// from the tail when they were pushed.
    late: BinaryHeap<Reverse<Key>>,
    /// Near future: the list starting at `heads[t % WHEEL_SLOTS]` holds
    /// exactly the keys of the single tick `t` that is the bucket's next
    /// cursor visit (`NIL` = empty bucket).
    heads: [u32; WHEEL_SLOTS],
    /// Bucket nodes `(key, next)`, shared by all buckets. A node is on
    /// exactly one bucket list or on the free list.
    pool: Vec<(Key, u32)>,
    /// Head of the free list threaded through `pool`.
    free: u32,
    /// Number of keys across all buckets (not counting `current`).
    in_buckets: usize,
    /// Keys at least one full rotation ahead of the cursor.
    overflow: BinaryHeap<Reverse<Key>>,
}

impl WheelCal {
    pub(crate) fn new() -> WheelCal {
        WheelCal {
            cursor: 0,
            current: Vec::with_capacity(64),
            late: BinaryHeap::new(),
            heads: [NIL; WHEEL_SLOTS],
            pool: Vec::new(),
            free: NIL,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
        }
    }

    pub(crate) fn push(&mut self, key: Key) {
        let t = tick_of(key.at);
        if t <= self.cursor {
            self.push_reached(key);
        } else if t - self.cursor < WHEEL_SLOTS as u64 {
            self.push_bucket(t, key);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Insert a key at or behind the cursor into the run, walking at most
    /// [`RUN_SCAN`] keys up from the tail. A key whose slot lies deeper —
    /// one comparison with the key just above the scan's reach tells —
    /// goes to `late` without a walk.
    fn push_reached(&mut self, key: Key) {
        let run = &mut self.current;
        let floor = run.len().saturating_sub(RUN_SCAN);
        if floor > 0 && run[floor - 1] < key {
            self.late.push(Reverse(key));
            return;
        }
        let mut i = run.len();
        while i > floor && run[i - 1] < key {
            i -= 1;
        }
        run.insert(i, key);
    }

    /// Link `key` at the head of tick `t`'s bucket, reusing a freed node
    /// when there is one.
    fn push_bucket(&mut self, t: u64, key: Key) {
        let head = &mut self.heads[(t % WHEEL_SLOTS as u64) as usize];
        let node = (key, *head);
        if self.free == NIL {
            assert!(self.pool.len() < NIL as usize, "wheel node space exhausted");
            *head = self.pool.len() as u32;
            self.pool.push(node);
        } else {
            *head = self.free;
            let slot = &mut self.pool[self.free as usize];
            self.free = slot.1;
            *slot = node;
        }
        self.in_buckets += 1;
    }

    /// Move the cursor's bucket into `current`, returning its nodes to
    /// the free list.
    fn drain_bucket(&mut self) {
        let b = (self.cursor % WHEEL_SLOTS as u64) as usize;
        let mut n = std::mem::replace(&mut self.heads[b], NIL);
        while n != NIL {
            let node = &mut self.pool[n as usize];
            let (key, next) = *node;
            node.1 = self.free;
            self.free = n;
            self.current.push(key);
            self.in_buckets -= 1;
            n = next;
        }
    }

    /// Nodes reachable from `heads`, and nodes on the free list.
    fn count_nodes(&self) -> (usize, usize) {
        let walk = |mut n: u32| {
            let mut len = 0;
            while n != NIL {
                len += 1;
                n = self.pool[n as usize].1;
            }
            len
        };
        (self.heads.iter().map(|&h| walk(h)).sum(), walk(self.free))
    }

    /// Advance the cursor until `current` is non-empty, then sort it.
    /// Returns false when the calendar holds no keys at all.
    fn refill(&mut self) -> bool {
        debug_assert!(self.current.is_empty() && self.late.is_empty());
        loop {
            if self.in_buckets == 0 {
                // Everything pending (if anything) is in overflow: jump the
                // cursor straight to the earliest overflow tick.
                match self.overflow.peek() {
                    None => return false,
                    Some(Reverse(k)) => self.cursor = self.cursor.max(tick_of(k.at)),
                }
            } else {
                self.cursor += 1;
            }
            // Overflow keys now within one rotation of the cursor move into
            // the wheel (or straight to current when their tick is due).
            while let Some(Reverse(k)) = self.overflow.peek() {
                let t = tick_of(k.at);
                if t <= self.cursor {
                    let Reverse(k) = self.overflow.pop().expect("peeked");
                    self.current.push(k);
                } else if t - self.cursor < WHEEL_SLOTS as u64 {
                    let Reverse(k) = self.overflow.pop().expect("peeked");
                    self.push_bucket(t, k);
                } else {
                    break;
                }
            }
            self.drain_bucket();
            if !self.current.is_empty() {
                self.current.sort_unstable_by(|a, b| b.cmp(a));
                // Pool accounting (DESIGN.md §7.2): every node is on exactly
                // one bucket list or on the free list.
                crate::invariant!(
                    self.count_nodes() == (self.in_buckets, self.pool.len() - self.in_buckets),
                    "wheel pool leak: {:?} nodes (bucketed, free), in_buckets {} of {}",
                    self.count_nodes(),
                    self.in_buckets,
                    self.pool.len()
                );
                return true;
            }
        }
    }

    /// Make sure a reached key exists, refilling when both the run and
    /// `late` are empty; false when the calendar holds no keys at all.
    fn reached(&mut self) -> bool {
        !(self.current.is_empty() && self.late.is_empty()) || self.refill()
    }

    /// Whether the reached minimum is `late`'s top rather than the run's
    /// tail.
    fn min_is_late(&self) -> bool {
        match self.late.peek() {
            None => false,
            Some(Reverse(l)) => self.current.last().is_none_or(|r| l < r),
        }
    }

    pub(crate) fn pop_min(&mut self) -> Option<Key> {
        if !self.reached() {
            return None;
        }
        if self.min_is_late() {
            self.late.pop().map(|Reverse(k)| k)
        } else {
            self.current.pop()
        }
    }

    pub(crate) fn peek_min(&mut self) -> Option<Key> {
        if !self.reached() {
            return None;
        }
        if self.min_is_late() {
            self.late.peek().map(|Reverse(k)| *k)
        } else {
            self.current.last().copied()
        }
    }
}

/// One-shot event slot: recycled through a free list, validated by `gen`.
struct EventSlot<O> {
    gen: u32,
    f: Option<O>,
}

/// Re-armable timer slot: the closure is boxed once at creation time and
/// survives across arms, cancels and fires.
struct TimerSlot<M> {
    gen: u32,
    /// False once the owning timer handle is dropped.
    alive: bool,
    armed: bool,
    /// Auto re-arm period for periodic timers.
    auto: Option<Dur>,
    f: Option<M>,
}

/// A delay line (`World::delay_line`): the `(at, seq)` keys of a constant
/// delay's in-flight entries, oldest first. Sorted by construction — the
/// owner's clock is monotone, the delay is constant and `seq` increases —
/// so the front is the line's minimum and a send is a `push_back`: no
/// slab slot, no calendar key, no boxed closure. The line owns its fire
/// closure.
struct Line<M> {
    keys: VecDeque<(Time, u64)>,
    /// The line's handler; `None` only while it runs.
    f: Option<M>,
}

/// What a popped live calendar key resolved to.
pub(crate) enum Fired<O, M> {
    OneShot(O),
    Timer { idx: u32, gen: u32, f: M },
}

/// What [`Sched::pop_next`] resolved to: a calendar firing, or an entry
/// of line `idx` with the line's handler, to be given back through
/// [`Sched::finish_line_fire`].
pub(crate) enum Next<O, M> {
    Cal(Fired<O, M>),
    Line { idx: u32, f: M },
}

/// Calendar plus slab arena: the whole scheduler state behind one `&mut`.
///
/// The owner supplies the monotone sequence numbers (`seq` arguments) and
/// keeps the clock; this struct only orders, stores, and recycles.
pub(crate) struct Sched<O, M> {
    calendar: WheelCal,
    events: Vec<EventSlot<O>>,
    free_events: Vec<u32>,
    timers: Vec<TimerSlot<M>>,
    free_timers: Vec<u32>,
    /// Delay lines, merged with the calendar by [`Self::pop_next`].
    lines: Vec<Line<M>>,
    /// Logically pending firings: scheduled one-shots, armed timers and
    /// delay-line entries.
    live: usize,
    /// Key of the last firing [`Self::pop_next`] returned (checker state).
    last_fired: Option<(Time, u64)>,
}

impl<O, M> Sched<O, M> {
    pub(crate) fn new() -> Sched<O, M> {
        Sched {
            calendar: WheelCal::new(),
            events: Vec::new(),
            free_events: Vec::new(),
            timers: Vec::new(),
            free_timers: Vec::new(),
            lines: Vec::new(),
            live: 0,
            last_fired: None,
        }
    }

    /// Live (non-cancelled) pending firings.
    pub(crate) fn pending(&self) -> usize {
        self.live
    }

    /// Number of one-shot slots ever allocated (slab high-water mark).
    #[cfg(test)]
    pub(crate) fn event_arena_len(&self) -> usize {
        self.events.len()
    }

    /// Schedule a one-shot at `at` under sequence number `seq`.
    pub(crate) fn schedule(&mut self, at: Time, seq: u64, f: O) -> EventId {
        self.live += 1;
        let (slot, gen) = if let Some(idx) = self.free_events.pop() {
            let s = &mut self.events[idx as usize];
            debug_assert!(s.f.is_none(), "free-listed slot must be vacant");
            s.f = Some(f);
            (idx, s.gen)
        } else {
            let idx = self.events.len() as u32;
            assert!(idx < TIMER_BIT, "event slot space exhausted");
            self.events.push(EventSlot { gen: 0, f: Some(f) });
            (idx, 0)
        };
        self.calendar.push(Key { at, seq, slot, gen });
        EventId::pack(slot, gen)
    }

    /// Cancel a pending one-shot. No-op if it already fired or was
    /// cancelled. O(1): the slot's generation is bumped (orphaning the
    /// calendar key, which is discarded when popped) and the closure is
    /// dropped now.
    pub(crate) fn cancel(&mut self, id: EventId) {
        let (slot, gen) = id.unpack();
        debug_assert_eq!(slot & TIMER_BIT, 0, "EventId never refers to a timer");
        let Some(s) = self.events.get_mut(slot as usize) else {
            return;
        };
        if s.gen != gen || s.f.is_none() {
            return; // already fired, cancelled, or recycled
        }
        s.f = None;
        s.gen = s.gen.wrapping_add(1);
        self.free_events.push(slot);
        self.live -= 1;
    }

    /// Allocate a timer slot around `f`; returns the slot index.
    pub(crate) fn make_timer(&mut self, auto: Option<Dur>, f: M) -> u32 {
        if let Some(idx) = self.free_timers.pop() {
            let t = &mut self.timers[idx as usize];
            debug_assert!(t.f.is_none() && !t.alive);
            t.alive = true;
            t.armed = false;
            t.auto = auto;
            t.f = Some(f);
            idx
        } else {
            let idx = self.timers.len() as u32;
            assert!(idx < TIMER_BIT, "timer slot space exhausted");
            self.timers.push(TimerSlot {
                gen: 0,
                alive: true,
                armed: false,
                auto,
                f: Some(f),
            });
            idx
        }
    }

    /// Arm timer slot `idx` to fire at `at` under `seq`. Caller guarantees
    /// it is alive and disarmed.
    pub(crate) fn arm_timer(&mut self, idx: u32, at: Time, seq: u64) {
        let t = &mut self.timers[idx as usize];
        debug_assert!(t.alive && !t.armed);
        t.armed = true;
        let gen = t.gen;
        self.live += 1;
        self.calendar.push(Key {
            at,
            seq,
            slot: idx | TIMER_BIT,
            gen,
        });
    }

    pub(crate) fn timer_is_armed(&self, idx: u32) -> bool {
        self.timers[idx as usize].armed
    }

    /// Disarm the timer's pending firing, if any. The closure is kept.
    pub(crate) fn cancel_timer(&mut self, idx: u32) {
        let t = &mut self.timers[idx as usize];
        if !t.armed {
            return;
        }
        t.armed = false;
        t.gen = t.gen.wrapping_add(1);
        self.live -= 1;
    }

    /// Release a timer slot on handle drop (after [`Self::cancel_timer`]).
    pub(crate) fn release_timer(&mut self, idx: u32) {
        let t = &mut self.timers[idx as usize];
        t.alive = false;
        t.gen = t.gen.wrapping_add(1);
        // The closure may be absent mid-fire; the fire path sees
        // `alive == false` and discards it instead of putting it back.
        t.f = None;
        t.auto = None;
        self.free_timers.push(idx);
    }

    /// Resolve a popped key against the slab; `None` means the key was
    /// stale (cancelled / superseded) and carried no work.
    fn take_fired(&mut self, key: Key) -> Option<Fired<O, M>> {
        if key.slot & TIMER_BIT != 0 {
            let idx = key.slot & !TIMER_BIT;
            let t = &mut self.timers[idx as usize];
            if t.gen != key.gen || !t.armed {
                return None;
            }
            t.armed = false;
            let f = t.f.take().expect("armed timer holds its closure");
            self.live -= 1;
            Some(Fired::Timer {
                idx,
                gen: key.gen,
                f,
            })
        } else {
            let s = &mut self.events[key.slot as usize];
            if s.gen != key.gen {
                return None;
            }
            let f = s.f.take().expect("live event slot holds its closure");
            s.gen = s.gen.wrapping_add(1);
            self.free_events.push(key.slot);
            self.live -= 1;
            Some(Fired::OneShot(f))
        }
    }

    /// Pop the next live calendar firing whose `(at, seq)` is strictly
    /// below `bound`, discarding stale keys below it on the way: one
    /// calendar peek per event.
    fn pop_fired_below(&mut self, bound: (Time, u64)) -> Option<(Key, Fired<O, M>)> {
        loop {
            let key = self.calendar.peek_min()?;
            if (key.at, key.seq) >= bound {
                return None;
            }
            let _ = self.calendar.pop_min();
            if let Some(fired) = self.take_fired(key) {
                return Some((key, fired));
            }
        }
    }

    /// Pop the next live firing strictly before `bound`, discarding stale
    /// keys below it on the way — the lane engine's fused
    /// `next_live_at` + pop, one calendar peek per event. Not expressed as
    /// `pop_fired_below((bound, 0))`: that read +5 % on `lane_incast`.
    pub(crate) fn pop_fired_before(&mut self, bound: Time) -> Option<(Time, Fired<O, M>)> {
        loop {
            let key = self.calendar.peek_min()?;
            if key.at >= bound {
                return None;
            }
            let _ = self.calendar.pop_min();
            if let Some(fired) = self.take_fired(key) {
                return Some((key.at, fired));
            }
        }
    }

    /// Open a delay line whose entries fire the closure `f` builds from
    /// the new line's index, which is returned. Lines are never freed:
    /// make one per component, not per packet — [`Self::pop_next`] scans
    /// every line's head on every event.
    pub(crate) fn make_line(&mut self, f: impl FnOnce(u32) -> M) -> u32 {
        let idx = self.lines.len() as u32;
        self.lines.push(Line {
            keys: VecDeque::new(),
            f: Some(f(idx)),
        });
        idx
    }

    /// Append an entry to `line`. The caller stamps `(at, seq)` exactly as
    /// it would for [`Self::schedule`], with the line's constant delay.
    pub(crate) fn line_send(&mut self, line: u32, at: Time, seq: u64) {
        self.live += 1;
        self.lines[line as usize].keys.push_back((at, seq));
    }

    /// Entries in flight on `line`.
    pub(crate) fn line_len(&self, line: u32) -> usize {
        self.lines[line as usize].keys.len()
    }

    /// Pop the next firing at or before `deadline`: the global `(at, seq)`
    /// minimum over the calendar's live keys and every delay line's head.
    /// A line entry resolves to its line's handler as [`Next::Line`]; give
    /// it back with [`Self::finish_line_fire`].
    pub(crate) fn pop_next(&mut self, deadline: Time) -> Option<(Time, Next<O, M>)> {
        let mut bound = (deadline, u64::MAX);
        let mut first = None;
        for (i, line) in self.lines.iter().enumerate() {
            match line.keys.front() {
                Some(&head) if head < bound => {
                    bound = head;
                    first = Some(i);
                }
                _ => {}
            }
        }
        let (key, next) = match self.pop_fired_below(bound) {
            Some((k, fired)) => ((k.at, k.seq), Next::Cal(fired)),
            None => {
                let idx = first?;
                let line = &mut self.lines[idx];
                let key = line.keys.pop_front().expect("head was read above");
                // Merge obligations (DESIGN.md §7.2): a line is sorted, and
                // its head fires only when no calendar key precedes it.
                crate::invariant!(
                    line.keys.front().is_none_or(|&next| key < next),
                    "delay line out of order: fired {key:?}, new head {:?}",
                    line.keys.front()
                );
                let f = line.f.take().expect("handlers do not run the world");
                crate::invariant!(
                    self.calendar.peek_min().is_none_or(|k| key < (k.at, k.seq)),
                    "delay line entry {key:?} fired past the calendar head"
                );
                self.live -= 1;
                (key, Next::Line { idx: idx as u32, f })
            }
        };
        crate::invariant!(
            self.last_fired.is_none_or(|last| last < key),
            "event order went backwards: {key:?} after {:?}",
            self.last_fired
        );
        self.last_fired = Some(key);
        Some((key.0, next))
    }

    /// Give line `idx`'s handler back after it ran.
    pub(crate) fn finish_line_fire(&mut self, idx: u32, f: M) {
        self.lines[idx as usize].f = Some(f);
    }

    /// Give a timer closure back to its slot after a firing; returns
    /// `Some(period)` when the owner must auto re-arm (periodic timer whose
    /// callback neither re-armed nor cancelled nor dropped the handle).
    pub(crate) fn finish_timer_fire(&mut self, idx: u32, gen: u32, f: M) -> Option<Dur> {
        let t = &mut self.timers[idx as usize];
        if t.alive && t.f.is_none() {
            t.f = Some(f);
            if t.gen == gen && !t.armed {
                t.auto
            } else {
                None
            }
        } else {
            None
        }
    }

    /// Instant of the next live (non-cancelled) firing, discarding any
    /// stale keys found on the way.
    pub(crate) fn next_live_at(&mut self) -> Option<Time> {
        loop {
            let key = self.calendar.peek_min()?;
            let live = if key.slot & TIMER_BIT != 0 {
                let t = &self.timers[(key.slot & !TIMER_BIT) as usize];
                t.gen == key.gen && t.armed
            } else {
                self.events[key.slot as usize].gen == key.gen
            };
            if live {
                return Some(key.at);
            }
            // Stale: drop it so a cancelled head can't mask a live event
            // beyond the caller's deadline.
            let _ = self.calendar.pop_min();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, seq: u64) -> Key {
        Key {
            at: Time(at),
            seq,
            slot: 0,
            gen: 0,
        }
    }

    type TestSched = Sched<Box<dyn FnOnce()>, Box<dyn FnMut()>>;

    #[test]
    fn pop_next_merges_lines_and_calendar_by_at_then_seq() {
        let mut s = TestSched::new();
        let a = s.make_line(|_| Box::new(|| {}));
        let b = s.make_line(|_| Box::new(|| {}));
        // seq order at t=100: calendar 0, line a 1, calendar 2, line b 3.
        s.schedule(Time(100), 0, Box::new(|| {}));
        s.line_send(a, Time(100), 1);
        s.schedule(Time(100), 2, Box::new(|| {}));
        s.line_send(b, Time(100), 3);
        s.line_send(a, Time(101), 4); // past the deadline below
        assert_eq!(s.pending(), 5);
        let mut order = Vec::new();
        for _ in 0..4 {
            let (at, next) = s.pop_next(Time(100)).expect("four due");
            order.push(match next {
                Next::Cal(Fired::OneShot(_)) => (at, 'c'),
                Next::Cal(Fired::Timer { .. }) => panic!("no timer was armed"),
                Next::Line { idx, f } => {
                    s.finish_line_fire(idx, f);
                    (at, if idx == a { 'a' } else { 'b' })
                }
            });
        }
        let t = Time(100);
        assert_eq!(order, [(t, 'c'), (t, 'a'), (t, 'c'), (t, 'b')]);
        assert_eq!((s.pending(), s.line_len(a)), (1, 1));
    }

    #[test]
    #[should_panic(expected = "delay line out of order")]
    fn unsorted_line_trips_the_checker() {
        let mut s = TestSched::new();
        let line = s.make_line(|_| Box::new(|| {}));
        s.line_send(line, Time(300), 0);
        s.line_send(line, Time(250), 1); // a delay that shrank between sends
        s.pop_next(Time(1_000));
    }

    /// The ladder's dense bucket: 4096 keys in one tick, each re-armed
    /// 1 µs after it pops (4096 periodic 1 µs timers), so a re-arm lands
    /// about a thousand keys up from the run's tail. Pops follow a
    /// `BinaryHeap` oracle, and no insert shifts more than `RUN_SCAN` keys.
    #[test]
    fn dense_bucket_rearms_respect_the_scan_bound() {
        let (base, keys) = (4 * BUCKET_NS, 4096u64);
        let mut cal = WheelCal::new();
        let mut oracle = BinaryHeap::new();
        for seq in 0..keys {
            let k = key(base + seq % 1_000, seq);
            cal.push(k);
            oracle.push(Reverse(k));
        }
        let (mut seq, mut pops, mut late_peak) = (keys, 0, 0);
        while let Some(k) = cal.pop_min() {
            let Reverse(want) = oracle.pop().expect("the oracle holds every key");
            assert_eq!((k.at, k.seq), (want.at, want.seq), "pop {pops}");
            pops += 1;
            let at = k.at.0 + 1_000;
            if tick_of(Time(at)) > cal.cursor {
                continue; // the tick is over: stop re-arming
            }
            let rearm = key(at, seq);
            seq += 1;
            let late = cal.late.len();
            cal.push(rearm);
            oracle.push(Reverse(rearm));
            if cal.late.len() == late {
                let slot = cal.current.partition_point(|x| *x > rearm);
                let shifted = cal.current.len() - 1 - slot;
                assert!(shifted <= RUN_SCAN, "re-arm {seq} shifted {shifted} keys");
            }
            late_peak = late_peak.max(cal.late.len());
        }
        assert!(oracle.is_empty(), "{} keys never popped", oracle.len());
        assert!(pops > 3 * keys, "{pops} pops");
        assert!(late_peak >= 1_000, "late peaked at {late_peak}");
    }

    #[test]
    fn pool_is_bounded_by_concurrently_bucketed_keys() {
        let mut cal = WheelCal::new();
        let mut seq = 0;
        for round in 0..100u64 {
            // Ten keys spread over ten future buckets, then drained.
            let base = (round + 1) * 16 * BUCKET_NS;
            for i in 0..10 {
                cal.push(key(base + i * BUCKET_NS + 7, seq));
                seq += 1;
            }
            assert_eq!(cal.in_buckets, 10);
            for _ in 0..10 {
                cal.pop_min().expect("pushed");
            }
        }
        assert!(cal.pool.len() <= 16, "pool grew to {}", cal.pool.len());
        assert!(cal.pop_min().is_none());
    }

    #[test]
    fn drained_wheel_has_every_node_on_the_free_list() {
        let mut cal = WheelCal::new();
        let horizon = WHEEL_SLOTS as u64 * BUCKET_NS;
        for seq in 0..300u64 {
            // Near wheel, same-bucket collisions and overflow alike.
            cal.push(key(BUCKET_NS + (seq * 7_919) % (3 * horizon), seq));
        }
        let mut popped = Vec::new();
        while let Some(k) = cal.pop_min() {
            popped.push((k.at, k.seq));
        }
        assert_eq!(popped.len(), 300);
        assert!(popped.is_sorted(), "pop order is (at, seq)");
        assert_eq!(cal.in_buckets, 0);
        assert!(cal.heads.iter().all(|&h| h == NIL));
        assert_eq!(cal.count_nodes(), (0, cal.pool.len()));
        assert!(!cal.pool.is_empty(), "the wheel was used");
    }

    #[test]
    fn overflow_key_migrates_through_a_bucket_in_order() {
        let mut cal = WheelCal::new();
        let horizon = WHEEL_SLOTS as u64 * BUCKET_NS;
        let far = horizon + 40 * BUCKET_NS + 5;
        cal.push(key(far, 0)); // overflow: a rotation ahead of the cursor
        cal.push(key(50 * BUCKET_NS, 1)); // near wheel
        assert_eq!((cal.in_buckets, cal.overflow.len()), (1, 1));
        assert_eq!(cal.pop_min().map(|k| k.seq), Some(1));
        // The cursor is at tick 50; the far key is now within a rotation
        // but only moves on the next refill. A same-bucket key scheduled
        // directly, with a later seq, must not overtake it.
        cal.push(key(far, 2));
        cal.push(key(far - 1, 3));
        assert_eq!(cal.peek_min().map(|k| k.seq), Some(3));
        assert_eq!((cal.in_buckets, cal.overflow.len()), (0, 0));
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop_min())
            .map(|k| k.seq)
            .collect();
        assert_eq!(order, [3, 0, 2]);
        assert_eq!(cal.count_nodes(), (0, cal.pool.len()));
    }
}
