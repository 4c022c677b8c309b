//! The serial event loop: an `Rc`-shared façade over the calendar + slab
//! scheduler core in [`crate::sched`], with stable FIFO tie-breaking,
//! O(1) generation-counter cancellation, a re-armable [`Timer`] API that
//! boxes its closure exactly once, and typed [`DelayLine`]s for constant
//! delays.
//!
//! The calendar mechanics (the timer wheel and its merge with the delay
//! lines) live in `sched.rs`, which the parallel
//! [`crate::shard::ShardWorld`] lane engine shares; this module
//! owns only the serial-world policy: the virtual clock, the global
//! sequence counter, and the `Rc<World>` callback idiom. A `World` is
//! deliberately `!Send`/`!Sync` — parallelism happens across worlds (or
//! across [`crate::shard`] lanes), never inside one.
//!
//! # Delay lines (DESIGN.md §3.17)
//!
//! A fabric hop is a *constant* delay applied to a stream of packets:
//! cable propagation, switch pipeline. Scheduled as one-shots, each costs
//! a boxed closure, a slab slot and a trip through the calendar heap. A
//! [`DelayLine`] keeps the same `(now + delay, next_seq())` key in a FIFO
//! instead — the keys are sorted because `now` is monotone, `delay` is
//! constant and `seq` increases — and the run loop pops the global
//! `(at, seq)` minimum over the calendar and the line heads. Every key
//! still comes from the one sequence counter at the same call instant, so
//! a line entry fires exactly where the `schedule_in` it replaces would
//! have: event order, [`World::events_executed`] and [`World::pending`]
//! are unchanged.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

pub use crate::sched::EventId;
use crate::sched::{Fired, Next, Sched};
use crate::time::{Dur, Time};

/// The scheduler specialization the serial world runs on: plain boxed
/// closures, free to capture `Rc`s.
type WorldSched = Sched<Box<dyn FnOnce()>, Box<dyn FnMut()>>;

/// A deterministic single-threaded discrete-event world.
///
/// Components hold an `Rc<World>` and schedule callbacks on it; callbacks may
/// themselves schedule further events. The world is not `Send`/`Sync` —
/// parallelism in this project happens across worlds, never inside one.
///
/// ```
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use xrdma_sim::{Dur, World};
///
/// let world = World::new();
/// let hits = Rc::new(Cell::new(0));
/// let h = hits.clone();
/// world.schedule_in(Dur::micros(5), move || h.set(h.get() + 1));
/// world.run();
/// assert_eq!(hits.get(), 1);
/// assert_eq!(world.now().nanos(), 5_000);
/// ```
pub struct World {
    now: Cell<Time>,
    seq: Cell<u64>,
    // xrdma-lint: allow(non-send-shard-state) -- the serial Rc-world's one interior-mutable cell; Send lane state lives in shard::Lane, which carries Sched by plain &mut
    sched: RefCell<WorldSched>,
    executed: Cell<u64>,
}

impl World {
    /// Create a fresh world at `t = 0`.
    pub fn new() -> Rc<World> {
        Rc::new(World {
            now: Cell::new(Time::ZERO),
            seq: Cell::new(0),
            sched: RefCell::new(Sched::new()),
            executed: Cell::new(0),
        })
    }

    /// The current virtual instant.
    #[inline]
    pub fn now(&self) -> Time {
        self.now.get()
    }

    /// Total callbacks executed so far (diagnostic).
    pub fn events_executed(&self) -> u64 {
        self.executed.get()
    }

    /// Number of events logically pending: scheduled one-shots, armed
    /// timers and delay-line entries, excluding anything already cancelled.
    pub fn pending(&self) -> usize {
        self.sched.borrow().pending()
    }

    #[inline]
    fn next_seq(&self) -> u64 {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        seq
    }

    /// Schedule `f` to run at absolute time `at`.
    ///
    /// Scheduling in the past is a bug in the caller; it panics in debug
    /// builds and clamps to `now` in release builds.
    pub fn schedule_at(&self, at: Time, f: impl FnOnce() + 'static) -> EventId {
        debug_assert!(
            at >= self.now(),
            "scheduling into the past: {:?} < {:?}",
            at,
            self.now()
        );
        let at = at.max(self.now());
        let seq = self.next_seq();
        self.sched.borrow_mut().schedule(at, seq, Box::new(f))
    }

    /// Schedule `f` to run after delay `d`.
    pub fn schedule_in(&self, d: Dur, f: impl FnOnce() + 'static) -> EventId {
        self.schedule_at(self.now().saturating_add(d), f)
    }

    /// Cancel a pending event. No-op if it already fired or was cancelled.
    ///
    /// O(1): the slot's generation is bumped (orphaning the calendar key,
    /// which is discarded when popped) and the closure is dropped now.
    pub fn cancel(&self, id: EventId) {
        self.sched.borrow_mut().cancel(id);
    }

    /// Create a re-armable [`Timer`] around `f`. The closure is boxed once,
    /// here; [`Timer::arm_in`] re-arms it with no further allocation.
    pub fn timer(self: &Rc<Self>, f: impl FnMut() + 'static) -> Timer {
        self.make_timer(None, Box::new(f))
    }

    /// Create a [`Timer`] that automatically re-arms itself `period` after
    /// each firing (after the callback returns — the same order a callback
    /// ending in `schedule_in(period, ...)` produced). Call
    /// [`Timer::arm_in`] once to start it.
    pub fn periodic(self: &Rc<Self>, period: Dur, f: impl FnMut() + 'static) -> Timer {
        self.make_timer(Some(period), Box::new(f))
    }

    fn make_timer(self: &Rc<Self>, auto: Option<Dur>, f: Box<dyn FnMut()>) -> Timer {
        let idx = self.sched.borrow_mut().make_timer(auto, f);
        Timer {
            world: self.clone(),
            idx,
        }
    }

    /// Arm timer slot `idx` to fire at `at`. Caller guarantees it is alive
    /// and disarmed.
    fn arm_timer_slot(&self, idx: u32, at: Time) {
        debug_assert!(at >= self.now(), "arming a timer into the past");
        let at = at.max(self.now());
        let seq = self.next_seq();
        self.sched.borrow_mut().arm_timer(idx, at, seq);
    }

    /// Open a [`DelayLine`]: every item [`DelayLine::send`]s is handed to
    /// `handler` exactly `delay` later, in the order a
    /// `schedule_in(delay, ..)` per item would have run.
    ///
    /// The world keeps `handler` for its whole life, so it must not
    /// capture an `Rc<World>` (or anything owning one) — the same
    /// ownership rule as [`Timer`] closures. Lines are never freed and the
    /// run loop looks at every line's head on every event: make one per
    /// component and delay, not one per packet or per port.
    pub fn delay_line<T: 'static>(
        self: &Rc<Self>,
        delay: Dur,
        handler: impl Fn(T) + 'static,
    ) -> DelayLine<T> {
        let items = Rc::new(RefCell::new(VecDeque::new()));
        let queue = items.clone();
        let world = Rc::downgrade(self);
        let idx = self.sched.borrow_mut().make_line(|idx| {
            Box::new(move || {
                let item = queue
                    .borrow_mut()
                    .pop_front()
                    .expect("every line key has its item");
                // Key/item accounting (DESIGN.md §7.2): the run loop just
                // popped this entry's key, and we its item.
                crate::invariant!(
                    world
                        .upgrade()
                        .is_some_and(|w| w.sched.borrow().line_len(idx) == queue.borrow().len()),
                    "delay line {idx}: keys and items out of step"
                );
                handler(item);
            })
        });
        DelayLine {
            world: self.clone(),
            idx,
            delay,
            items,
        }
    }

    /// Pop and execute the next event at or before `deadline`; `false`
    /// when there is none (cancelled events are skipped transparently).
    fn step_until(&self, deadline: Time) -> bool {
        let Some((at, next)) = self.sched.borrow_mut().pop_next(deadline) else {
            return false;
        };
        debug_assert!(at >= self.now());
        self.now.set(at);
        self.executed.set(self.executed.get() + 1);
        match next {
            Next::Line { idx, mut f } => {
                f();
                self.sched.borrow_mut().finish_line_fire(idx, f);
            }
            Next::Cal(Fired::OneShot(f)) => f(),
            Next::Cal(Fired::Timer { idx, gen, mut f }) => {
                f();
                // Give the closure back to its slot — unless the handle
                // was dropped (and the slot possibly re-allocated)
                // during the callback.
                let rearm = self.sched.borrow_mut().finish_timer_fire(idx, gen, f);
                if let Some(period) = rearm {
                    self.arm_timer_slot(idx, self.now().saturating_add(period));
                }
            }
        }
        true
    }

    /// Pop and execute the next event. Returns `false` when nothing is
    /// pending.
    pub fn step(&self) -> bool {
        self.step_until(Time(u64::MAX))
    }

    /// Run until nothing is pending.
    ///
    /// Most experiments instead use [`World::run_until`] because keepalive
    /// timers and monitors re-arm themselves forever.
    pub fn run(&self) {
        while self.step() {}
    }

    /// Run every event scheduled at or before `deadline`, then advance the
    /// clock to exactly `deadline`.
    pub fn run_until(&self, deadline: Time) {
        while self.step_until(deadline) {}
        if self.now() < deadline {
            self.now.set(deadline);
        }
    }

    /// Run for a span of virtual time from the current instant.
    pub fn run_for(&self, d: Dur) {
        let deadline = self.now().saturating_add(d);
        self.run_until(deadline);
    }
}

/// A re-armable timer whose closure is boxed exactly once.
///
/// Created with [`World::timer`] (manual re-arm) or [`World::periodic`]
/// (auto re-arm after each callback). At most one firing is armed at a
/// time; dropping the handle cancels any armed firing and frees the slot.
///
/// Each arm allocates a fresh global sequence number, so timer firings
/// interleave with one-shot events in exactly the FIFO order the
/// equivalent `schedule_in` calls would have produced.
pub struct Timer {
    world: Rc<World>,
    idx: u32,
}

impl Timer {
    /// Arm the timer to fire at absolute time `at`.
    ///
    /// Panics in debug builds if the timer is already armed: re-arming an
    /// armed timer is a caller bug (cancel first).
    pub fn arm_at(&self, at: Time) {
        debug_assert!(!self.is_armed(), "timer is already armed");
        if self.is_armed() {
            return;
        }
        self.world.arm_timer_slot(self.idx, at);
    }

    /// Arm the timer to fire after delay `d`.
    pub fn arm_in(&self, d: Dur) {
        self.arm_at(self.world.now().saturating_add(d));
    }

    /// Is a firing currently scheduled?
    pub fn is_armed(&self) -> bool {
        self.world.sched.borrow().timer_is_armed(self.idx)
    }

    /// Cancel the armed firing, if any. The closure is kept; the timer can
    /// be re-armed later.
    pub fn cancel(&self) {
        self.world.sched.borrow_mut().cancel_timer(self.idx);
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        let mut sched = self.world.sched.borrow_mut();
        sched.cancel_timer(self.idx);
        sched.release_timer(self.idx);
    }
}

impl std::fmt::Debug for Timer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timer")
            .field("idx", &self.idx)
            .field("armed", &self.is_armed())
            .finish()
    }
}

/// A typed FIFO for one constant delay, created by [`World::delay_line`].
///
/// Handles are cheap to clone and all feed the same line. Entries cannot
/// be cancelled, and they outlive the handles: an item in flight when the
/// last handle drops is still delivered.
pub struct DelayLine<T> {
    world: Rc<World>,
    idx: u32,
    delay: Dur,
    /// In-flight items, parallel to the line's keys in the scheduler.
    items: Rc<RefCell<VecDeque<T>>>,
}

impl<T> DelayLine<T> {
    /// Hand `item` to the line's handler `delay` from now.
    pub fn send(&self, item: T) {
        let w = &self.world;
        let at = w.now().saturating_add(self.delay);
        let seq = w.next_seq();
        w.sched.borrow_mut().line_send(self.idx, at, seq);
        self.items.borrow_mut().push_back(item);
    }
}

impl<T> Clone for DelayLine<T> {
    fn clone(&self) -> Self {
        DelayLine {
            world: self.world.clone(),
            idx: self.idx,
            delay: self.delay,
            items: self.items.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::sched::{BUCKET_NS, WHEEL_SLOTS};
    use std::cell::RefCell;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn fifo_at_same_instant() {
        let w = World::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10 {
            let o = order.clone();
            w.schedule_at(Time(100), move || o.borrow_mut().push(i));
        }
        w.run();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn time_ordering() {
        let w = World::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, t) in [(0u32, 300u64), (1, 100), (2, 200)] {
            let o = order.clone();
            w.schedule_at(Time(t), move || o.borrow_mut().push(i));
        }
        w.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
        assert_eq!(w.now(), Time(300));
    }

    #[test]
    fn cancellation() {
        let w = World::new();
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let id = w.schedule_in(Dur::nanos(5), move || h.set(h.get() + 1));
        let h2 = hits.clone();
        w.schedule_in(Dur::nanos(6), move || h2.set(h2.get() + 10));
        w.cancel(id);
        w.cancel(id); // double-cancel is a no-op
        w.run();
        assert_eq!(hits.get(), 10);
    }

    #[test]
    fn cancel_then_pending_excludes_tombstones() {
        // `pending()` must count live events only, not cancelled ones that
        // still occupy calendar keys.
        let w = World::new();
        let ids: Vec<_> = (0..4)
            .map(|i| w.schedule_at(Time(100 + i), || {}))
            .collect();
        assert_eq!(w.pending(), 4);
        w.cancel(ids[1]);
        assert_eq!(w.pending(), 3);
        w.cancel(ids[1]); // double-cancel changes nothing
        assert_eq!(w.pending(), 3);
        w.run();
        assert_eq!(w.pending(), 0);
        assert_eq!(w.events_executed(), 3);
    }

    #[test]
    fn cancelled_head_does_not_mask_run_until_deadline() {
        // A cancelled key before the deadline must not cause run_until to
        // execute a live event beyond it.
        let w = World::new();
        let fired = Rc::new(Cell::new(false));
        let id = w.schedule_at(Time(50), || {});
        let f = fired.clone();
        w.schedule_at(Time(200), move || f.set(true));
        w.cancel(id);
        w.run_until(Time(100));
        assert_eq!(w.now(), Time(100));
        assert!(!fired.get(), "event beyond deadline must not run");
        assert_eq!(w.pending(), 1);
        w.run();
        assert!(fired.get());
    }

    #[test]
    fn nested_scheduling() {
        let w = World::new();
        let hits = Rc::new(Cell::new(0u32));
        let wc = w.clone();
        let h = hits.clone();
        w.schedule_in(Dur::nanos(1), move || {
            let h2 = h.clone();
            wc.schedule_in(Dur::nanos(1), move || h2.set(h2.get() + 1));
        });
        w.run();
        assert_eq!(hits.get(), 1);
        assert_eq!(w.now(), Time(2));
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let w = World::new();
        w.schedule_at(Time(50), || {});
        w.schedule_at(Time(5000), || {});
        w.run_until(Time(100));
        assert_eq!(w.now(), Time(100));
        assert_eq!(w.pending(), 1, "later event still queued");
        w.run();
        assert_eq!(w.now(), Time(5000));
    }

    #[test]
    fn run_for_periodic_timer() {
        // A self-rearming timer must be stoppable via run_for.
        let w = World::new();
        let count = Rc::new(Cell::new(0u64));
        fn arm(w: &Rc<World>, count: Rc<Cell<u64>>) {
            let wc = w.clone();
            w.schedule_in(Dur::micros(10), move || {
                count.set(count.get() + 1);
                arm(&wc.clone(), count);
            });
        }
        arm(&w, count.clone());
        w.run_for(Dur::millis(1));
        assert_eq!(count.get(), 100);
        assert_eq!(w.now(), Time(1_000_000));
    }

    #[test]
    fn events_executed_counts() {
        let w = World::new();
        for _ in 0..7 {
            w.schedule_in(Dur::nanos(1), || {});
        }
        w.run();
        assert_eq!(w.events_executed(), 7);
    }

    #[test]
    fn overflow_horizon_ordering() {
        // Events far beyond the near horizon interleave correctly with
        // near events, including equal instants across the migration path.
        let w = World::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let horizon = WHEEL_SLOTS as u64 * BUCKET_NS;
        let far = Time(3 * horizon + 17);
        let near = Time(horizon / 2);
        for (i, t) in [(0u32, far), (1, near), (2, far), (3, Time(1)), (4, far)] {
            let o = order.clone();
            w.schedule_at(t, move || o.borrow_mut().push(i));
        }
        w.run();
        // Sorted by (at, seq): t=1 first, then near, then the three far
        // events in insertion order.
        assert_eq!(*order.borrow(), vec![3, 1, 0, 2, 4]);
        assert_eq!(w.now(), far);
    }

    #[test]
    fn timer_fires_and_rearms_without_reboxing() {
        let w = World::new();
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        let t = w.timer(move || c.set(c.get() + 1));
        t.arm_in(Dur::micros(1));
        w.run_for(Dur::micros(5));
        assert_eq!(count.get(), 1);
        assert!(!t.is_armed(), "one-shot semantics until re-armed");
        t.arm_in(Dur::micros(1));
        w.run_for(Dur::micros(5));
        assert_eq!(count.get(), 2);
    }

    #[test]
    fn periodic_timer_auto_rearms() {
        let w = World::new();
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        let t = w.periodic(Dur::micros(10), move || c.set(c.get() + 1));
        t.arm_in(Dur::micros(10));
        w.run_for(Dur::millis(1));
        assert_eq!(count.get(), 100);
        assert_eq!(w.now(), Time(1_000_000));
        assert!(t.is_armed(), "still ticking");
    }

    #[test]
    fn timer_cancel_and_drop() {
        let w = World::new();
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        let t = w.timer(move || c.set(c.get() + 1));
        t.arm_in(Dur::micros(1));
        assert_eq!(w.pending(), 1);
        t.cancel();
        t.cancel(); // double-cancel is a no-op
        assert_eq!(w.pending(), 0);
        w.run_for(Dur::micros(5));
        assert_eq!(count.get(), 0);
        // Re-arm after cancel works, and dropping the handle cancels.
        t.arm_in(Dur::micros(1));
        drop(t);
        assert_eq!(w.pending(), 0);
        w.run_for(Dur::micros(5));
        assert_eq!(count.get(), 0);
    }

    #[test]
    fn timer_slot_recycled_after_drop() {
        let w = World::new();
        let a = w.timer(|| {});
        let idx_a = a.idx;
        drop(a);
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let b = w.timer(move || h.set(h.get() + 1));
        assert_eq!(b.idx, idx_a, "slot comes back off the free list");
        b.arm_in(Dur::nanos(1));
        w.run_for(Dur::nanos(10));
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn timer_fifo_with_one_shots_at_same_instant() {
        // Arm order decides same-instant order, regardless of mechanism.
        let w = World::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let o1 = order.clone();
        w.schedule_at(Time(1000), move || o1.borrow_mut().push(0));
        let o2 = order.clone();
        let t = w.timer(move || o2.borrow_mut().push(1));
        t.arm_at(Time(1000));
        let o3 = order.clone();
        w.schedule_at(Time(1000), move || o3.borrow_mut().push(2));
        w.run_for(Dur::micros(2));
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn timer_rearm_inside_own_callback() {
        // The retransmit-timer pattern: the callback re-arms its own timer.
        let w = World::new();
        let count = Rc::new(Cell::new(0u64));
        let slot: Rc<RefCell<Option<Timer>>> = Rc::new(RefCell::new(None));
        let c = count.clone();
        let s = slot.clone();
        let t = w.timer(move || {
            c.set(c.get() + 1);
            if c.get() < 3 {
                s.borrow()
                    .as_ref()
                    .expect("installed")
                    .arm_in(Dur::micros(7));
            }
        });
        t.arm_in(Dur::micros(7));
        *slot.borrow_mut() = Some(t);
        w.run_for(Dur::millis(1));
        assert_eq!(count.get(), 3);
        assert_eq!(w.now(), Time(1_000_000));
    }

    #[test]
    fn timer_dropped_inside_own_callback() {
        let w = World::new();
        let slot: Rc<RefCell<Option<Timer>>> = Rc::new(RefCell::new(None));
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        let s = slot.clone();
        let t = w.periodic(Dur::micros(1), move || {
            c.set(c.get() + 1);
            *s.borrow_mut() = None; // drop own handle mid-fire
        });
        t.arm_in(Dur::micros(1));
        *slot.borrow_mut() = Some(t);
        w.run_for(Dur::millis(1));
        assert_eq!(count.get(), 1, "dropping the handle stops the timer");
    }

    /// The FIFO-at-equal-instant proof obligation, executable: a seeded
    /// storm of one-shots (dense ties, exact bucket edges, overflow, and
    /// keys a rotation or more apart so the cursor jumps), a quarter of
    /// them cancelled, plus periodic timers, must fire exactly as an
    /// oracle computed here: every live key `(at, seq, id)` in one
    /// `BinaryHeap`, each timer firing re-armed `period` later under the
    /// next `seq`. Timers are dropped halfway, leaving only the sparse
    /// far keys for the wheel to jump between. One more one-shot fires a
    /// burst of 300 keys into its own, already reached tick (half of them
    /// same-instant ties): most land too deep in the sorted run and go to
    /// the side heap, so pops must merge the two.
    #[test]
    fn wheel_matches_reference() {
        const TIMER: u32 = 1 << 20;
        const BURST: u32 = 1 << 21;
        let is_timer = |id: u32| (TIMER..BURST).contains(&id);
        let horizon = WHEEL_SLOTS as u64 * BUCKET_NS;
        let (half, deadline) = (8 * horizon, 512 * horizon);
        let burst_at = 5 * BUCKET_NS + 100;
        for seed in [1u64, 7, 42] {
            let mut rng = SimRng::new(seed);
            let shots: Vec<(u64, bool)> = (0..2_000)
                .map(|_| {
                    let at = match rng.range(0, 6) {
                        0 => rng.range(0, 200),                     // dense same-instant ties
                        1 => rng.range(0, horizon),                 // near wheel
                        2 => rng.range(0, 64) * BUCKET_NS,          // exact bucket edges
                        3 => rng.range(horizon, 8 * horizon),       // overflow
                        4 => rng.range(8 * horizon, 512 * horizon), // sparse: jumps
                        _ => rng.range(0, 4 * horizon),
                    };
                    (at, rng.range(0, 4) == 0)
                })
                .collect();
            let periods: Vec<u64> = (0..8).map(|_| 1 + rng.range(0, horizon / 4)).collect();
            let burst: Vec<u64> = (0..300)
                .map(|j| burst_at + rng.range(0, if j % 2 == 0 { 64 } else { 3 * BUCKET_NS / 4 }))
                .collect();

            let w = World::new();
            let trace: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
            let weak = Rc::downgrade(&w);
            let tr = trace.clone();
            let record = move |id: u32| {
                let now = weak.upgrade().expect("world alive").now().nanos();
                tr.borrow_mut().push((now, id));
            };
            for (i, &(at, cancelled)) in shots.iter().enumerate() {
                let r = record.clone();
                let id = w.schedule_at(Time(at), move || r(i as u32));
                if cancelled {
                    w.cancel(id);
                }
            }
            let timers: Vec<Timer> = (0..8u32)
                .map(|t| {
                    let r = record.clone();
                    let period = Dur::nanos(periods[t as usize]);
                    let timer = w.periodic(period, move || r(TIMER + t));
                    timer.arm_in(period);
                    timer
                })
                .collect();
            timers[3].cancel();
            let (r, weak, ats) = (record.clone(), Rc::downgrade(&w), burst.clone());
            w.schedule_at(Time(burst_at), move || {
                r(BURST);
                let w = weak.upgrade().expect("world alive");
                for (j, &at) in ats.iter().enumerate() {
                    let r = r.clone();
                    w.schedule_at(Time(at), move || r(BURST + 1 + j as u32));
                }
            });
            w.run_until(Time(half));
            drop(timers);
            w.run_until(Time(deadline));

            // The oracle: one-shot `i` holds seq `i`, timer `t` seq 2000 + t,
            // the burst's trigger seq 2008.
            let mut heap = BinaryHeap::new();
            let mut seq = 0u64;
            for (i, &(at, cancelled)) in shots.iter().enumerate() {
                if !cancelled {
                    heap.push(Reverse((at, seq, i as u32)));
                }
                seq += 1;
            }
            for (t, &p) in periods.iter().enumerate() {
                if t != 3 {
                    heap.push(Reverse((p, seq, TIMER + t as u32)));
                }
                seq += 1;
            }
            heap.push(Reverse((burst_at, seq, BURST)));
            seq += 1;
            let mut want = Vec::new();
            for until in [half, deadline] {
                while let Some(&Reverse((at, _, id))) = heap.peek() {
                    if at > until {
                        break;
                    }
                    heap.pop();
                    want.push((at, id));
                    if is_timer(id) {
                        heap.push(Reverse((at + periods[(id - TIMER) as usize], seq, id)));
                        seq += 1;
                    } else if id == BURST {
                        for (j, &at) in burst.iter().enumerate() {
                            heap.push(Reverse((at, seq, BURST + 1 + j as u32)));
                            seq += 1;
                        }
                    }
                }
                heap.retain(|Reverse((_, _, id))| !is_timer(*id));
            }

            let got = trace.borrow();
            if let Some(i) = got.iter().zip(&want).position(|(g, o)| g != o) {
                panic!(
                    "seed {seed}: firing {i} is {:?}, oracle {:?}",
                    got[i], want[i]
                );
            }
            assert_eq!(got.len(), want.len(), "seed {seed}: event count");
            assert_eq!(w.events_executed(), want.len() as u64);
            assert_eq!((w.now(), w.pending()), (Time(deadline), heap.len()));
            assert!(want.len() > 1_500, "storm did real work: {}", want.len());
        }
    }

    /// Differential exactness of [`DelayLine`]: the storm above with a
    /// third of its events each sending one item through one of three
    /// lines (delays 0 / 250 / 500 ns) must trace, count and end exactly
    /// like a reference world that `schedule_in`s the same sends.
    #[test]
    fn delay_lines_match_schedule_in() {
        type Trace = Rc<RefCell<Vec<(u64, u32)>>>;
        const DELAYS: [u64; 3] = [0, 250, 500];
        /// `send(k, id)`: record `(now, id)` after `DELAYS[k]`, and
        /// `(now, id + 1)` from a one-shot scheduled right behind it for
        /// the same instant — a calendar key that must lose the tie.
        fn sender(w: &Rc<World>, trace: &Trace, lines: bool) -> Rc<dyn Fn(usize, u32)> {
            let weak = Rc::downgrade(w);
            let tr = trace.clone();
            let record = move |id: u32| {
                let now = weak.upgrade().expect("world alive").now().nanos();
                tr.borrow_mut().push((now, id));
            };
            let ls = lines.then(|| DELAYS.map(|d| w.delay_line(Dur::nanos(d), record.clone())));
            let weak = Rc::downgrade(w);
            Rc::new(move |k, id| {
                let w = weak.upgrade().expect("world alive");
                let delay = Dur::nanos(DELAYS[k]);
                let (first, second) = (record.clone(), record.clone());
                match &ls {
                    Some(ls) => ls[k].send(id),
                    None => drop(w.schedule_in(delay, move || first(id))),
                }
                w.schedule_in(delay, move || second(id + 1));
            })
        }
        fn storm(seed: u64, lines: bool) -> (Vec<(u64, u32)>, u64, u64) {
            let w = World::new();
            let mut rng = SimRng::new(seed);
            let trace: Trace = Rc::new(RefCell::new(Vec::new()));
            let send = sender(&w, &trace, lines);
            let mut cancellable = Vec::new();
            let horizon = WHEEL_SLOTS as u64 * BUCKET_NS;
            for i in 0..2_400u32 {
                let at = match rng.range(0, 4) {
                    0 | 1 => rng.range(0, 400) * 50, // dense ties, multiples of the delays
                    2 => rng.range(0, 64) * BUCKET_NS, // exact bucket edges
                    _ => rng.range(0, 2 * horizon),
                };
                let tr = trace.clone();
                let hop = (i % 3 == 0).then(|| (send.clone(), rng.range(0, 3) as usize));
                let id = w.schedule_at(Time(at), move || {
                    tr.borrow_mut().push((at, i));
                    if let Some((send, k)) = hop {
                        send(k, 1_000_000 + 2 * i);
                    }
                });
                if rng.range(0, 5) == 0 {
                    cancellable.push(id);
                }
            }
            for id in cancellable {
                w.cancel(id);
            }
            let mut timers = Vec::new();
            for t in 0..6u32 {
                let tr = trace.clone();
                // Multiples of 250 ns so timer firings tie with line heads.
                let period = Dur::nanos(250 * (20 + rng.range(0, 200)));
                let timer = w.periodic(period, move || tr.borrow_mut().push((u64::MAX, t)));
                timer.arm_in(period);
                timers.push(timer);
            }
            timers[2].cancel();
            w.run_until(Time(3 * horizon));
            let trace = trace.borrow().clone();
            (trace, w.events_executed(), w.now().nanos())
        }
        for seed in [1u64, 7, 42] {
            let reference = storm(seed, false);
            let hops = reference.0.iter().filter(|e| e.1 >= 1_000_000).count();
            assert!(reference.1 >= 2_000, "{} events", reference.1);
            assert!(hops >= 2 * 500, "{} sends rode the lines", hops / 2);
            assert_eq!(storm(seed, true), reference, "with lines, seed {seed}");
        }
    }

    #[test]
    fn run_until_fires_a_line_entry_at_exactly_the_deadline() {
        let w = World::new();
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        let line = w.delay_line(Dur::nanos(100), move |x: u32| g.borrow_mut().push(x));
        line.send(1); // due at 100
        w.run_until(Time(1));
        line.send(2); // due at 101
        w.run_until(Time(100));
        assert_eq!(*got.borrow(), vec![1]);
        assert_eq!(w.now(), Time(100));
        assert_eq!(w.pending(), 1, "deadline + 1 stays pending");
        w.run();
        assert_eq!(*got.borrow(), vec![1, 2]);
        assert_eq!(w.now(), Time(101));
    }

    #[test]
    fn pending_and_executed_count_line_entries() {
        let w = World::new();
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let line = w.delay_line(Dur::nanos(250), move |n: u32| h.set(h.get() + n));
        w.schedule_in(Dur::nanos(10), || {});
        line.send(1);
        line.clone().send(10); // clones feed the same line
        assert_eq!(w.pending(), 3);
        drop(line); // entries in flight outlive the handles
        w.run();
        assert_eq!((hits.get(), w.pending(), w.events_executed()), (11, 0, 3));
    }

    #[test]
    fn line_handler_may_send_on_its_own_line_and_open_new_ones() {
        let w = World::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        // The handler re-sends on its own line until the count runs out,
        // then opens a second line mid-fire and sends on that.
        let own: Rc<RefCell<Option<DelayLine<u32>>>> = Rc::new(RefCell::new(None));
        let (l, o, weak) = (log.clone(), own.clone(), Rc::downgrade(&w));
        let line = w.delay_line(Dur::nanos(250), move |left: u32| {
            let w = weak.upgrade().expect("world alive");
            l.borrow_mut().push((w.now().nanos(), left));
            if left > 0 {
                o.borrow().as_ref().expect("installed").send(left - 1);
            } else {
                let l2 = l.clone();
                let weak = Rc::downgrade(&w);
                w.delay_line(Dur::nanos(7), move |tag: u32| {
                    let now = weak.upgrade().expect("world alive").now().nanos();
                    l2.borrow_mut().push((now, tag));
                })
                .send(99);
            }
        });
        line.send(2);
        *own.borrow_mut() = Some(line);
        w.run();
        assert_eq!(*log.borrow(), vec![(250, 2), (500, 1), (750, 0), (757, 99)]);
        assert_eq!(w.events_executed(), 4);
        *own.borrow_mut() = None; // break the handler -> handle -> world cycle
    }

    #[test]
    fn pending_counts_armed_timers() {
        let w = World::new();
        let t = w.timer(|| {});
        assert_eq!(w.pending(), 0, "unarmed timer is not pending");
        t.arm_in(Dur::micros(1));
        assert_eq!(w.pending(), 1);
        t.cancel();
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn one_shot_slots_are_recycled() {
        // Slab recycling: a burst of events must not grow the arena past
        // the high-water mark of concurrently pending events.
        let w = World::new();
        for round in 0..100u64 {
            for i in 0..10u64 {
                w.schedule_at(Time(round * 100 + i), || {});
            }
            w.run_until(Time(round * 100 + 50));
        }
        w.run();
        assert!(
            w.sched.borrow().event_arena_len() <= 16,
            "arena grew to {} slots for 10 concurrent events",
            w.sched.borrow().event_arena_len()
        );
    }
}
