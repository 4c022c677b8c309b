//! The per-thread CPU model behind the middleware's "run-to-complete"
//! execution.
//!
//! X-RDMA (§IV-B of the paper) pins each context to one thread: all handlers
//! for that context's channels run to completion on that thread, lock-free.
//! In the simulation a [`CpuThread`] models exactly that: handlers scheduled
//! onto it are serialized, each handler may *charge* CPU time which pushes
//! back everything queued behind it. This is how the reproduction gets the
//! paper's observable thread-level effects:
//!
//! * polling gaps (the tracing framework's poll-gap watchdog, §VI-A II),
//! * application-induced jitter (the Pangu allocator-lock case study,
//!   §VII-D), which we reproduce by injecting slow handlers,
//! * software overhead differences between middleware stacks (Fig 7).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use crate::time::{Dur, Time};
use crate::world::{Timer, World};

/// A simulated CPU thread with run-to-complete semantics.
///
/// Work items submitted with [`CpuThread::exec`] run in submission order,
/// never overlapping; each may consume CPU via [`CpuThread::charge`], which
/// delays subsequent items. Total busy time is tracked for utilization
/// reporting.
///
/// The world holds a thread only weakly: once every owner has dropped its
/// `Rc<CpuThread>`, the pending pump is cancelled and the rest of the
/// queue never runs.
pub struct CpuThread {
    world: Rc<World>,
    name: String,
    /// The instant this thread becomes free.
    busy_until: Cell<Time>,
    /// Accumulated busy nanoseconds (utilization accounting).
    total_busy: Cell<u64>,
    /// Start instant of the currently running handler, if any.
    running_since: Cell<Option<Time>>,
    /// Observers notified after each handler completes, with the handler's
    /// start time and charged CPU cost (used by the poll-gap watchdog).
    observers: RefCell<Vec<Box<dyn Fn(Time, Dur)>>>,
    /// FIFO of submitted work: (earliest start, handler).
    queue: RefCell<VecDeque<(Time, Work)>>,
    /// Runs [`CpuThread::pump`]; armed iff a pump is pending. One timer per
    /// thread, re-armed for every pump, holding the thread by `Weak`.
    pump: Timer,
    /// Handlers executed so far. One executed handler is one "progress
    /// quantum": work submitted while a handler runs lands in the same
    /// queue behind it, which is what doorbell coalescing keys off.
    items_executed: Cell<u64>,
}

type Work = Box<dyn FnOnce(&Rc<CpuThread>)>;

impl CpuThread {
    pub fn new(world: Rc<World>, name: impl Into<String>) -> Rc<CpuThread> {
        Rc::new_cyclic(|me: &Weak<CpuThread>| {
            let me = me.clone();
            let pump = world.timer(move || {
                if let Some(thread) = me.upgrade() {
                    thread.pump();
                }
            });
            CpuThread {
                world,
                name: name.into(),
                busy_until: Cell::new(Time::ZERO),
                total_busy: Cell::new(0),
                running_since: Cell::new(None),
                observers: RefCell::new(Vec::new()),
                queue: RefCell::new(VecDeque::new()),
                pump,
                items_executed: Cell::new(0),
            }
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn world(&self) -> &Rc<World> {
        &self.world
    }

    /// When the thread next becomes idle.
    pub fn busy_until(&self) -> Time {
        self.busy_until.get().max(self.world.now())
    }

    /// Total CPU nanoseconds consumed by handlers on this thread.
    pub fn total_busy(&self) -> Dur {
        Dur(self.total_busy.get())
    }

    /// Handlers executed so far (progress quanta).
    pub fn items_executed(&self) -> u64 {
        self.items_executed.get()
    }

    /// Register an observer called after every handler with
    /// `(start_time, charged_cost)`.
    pub fn observe(&self, f: impl Fn(Time, Dur) + 'static) {
        self.observers.borrow_mut().push(Box::new(f));
    }

    /// Submit a handler to run as soon as the thread is free, but not
    /// before delay `after`. Handlers run strictly in submission order
    /// (run-to-complete FIFO); the handler receives the thread so it can
    /// charge CPU time or submit follow-up work.
    pub fn exec(self: &Rc<Self>, after: Dur, f: impl FnOnce(&Rc<CpuThread>) + 'static) {
        let earliest = self.world.now().saturating_add(after);
        self.queue.borrow_mut().push_back((earliest, Box::new(f)));
        self.arm_pump();
    }

    /// Arm the pump for the queue head if it is not already armed.
    fn arm_pump(&self) {
        if self.pump.is_armed() {
            return;
        }
        let head_earliest = match self.queue.borrow().front() {
            Some(&(t, _)) => t,
            None => return,
        };
        let at = head_earliest
            .max(self.busy_until.get())
            .max(self.world.now());
        self.pump.arm_at(at);
    }

    /// Run the queue head if its start conditions hold, then re-arm.
    fn pump(self: &Rc<Self>) {
        let now = self.world.now();
        // An earlier handler may have charged more CPU after this pump was
        // scheduled; if so, just re-arm for the new busy_until.
        let ready = {
            let q = self.queue.borrow();
            match q.front() {
                Some(&(earliest, _)) => earliest <= now && self.busy_until.get() <= now,
                None => false,
            }
        };
        if !ready {
            self.arm_pump();
            return;
        }
        let (_, f) = self.queue.borrow_mut().pop_front().expect("head checked");
        let begin = now;
        self.busy_until.set(begin);
        self.running_since.set(Some(begin));
        f(self);
        self.running_since.set(None);
        self.items_executed.set(self.items_executed.get() + 1);
        let cost = self.busy_until.get().since(begin);
        self.total_busy.set(self.total_busy.get() + cost.as_nanos());
        for obs in self.observers.borrow().iter() {
            obs(begin, cost);
        }
        self.arm_pump();
    }

    /// Number of handlers waiting to run (diagnostic; the poll-gap watchdog
    /// and backlog-sensitive tests use it).
    pub fn backlog(&self) -> usize {
        self.queue.borrow().len()
    }

    /// Consume `d` of CPU, pushing back everything queued behind the
    /// caller. Normally called inside a running handler; calls from
    /// outside (e.g. test setup before the world runs) simply advance the
    /// thread's busy horizon.
    pub fn charge(&self, d: Dur) {
        let base = self.busy_until.get().max(self.world.now());
        self.busy_until.set(base + d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn handlers_serialize_with_cost() {
        let w = World::new();
        let t = CpuThread::new(w.clone(), "t0");
        let log = Rc::new(RefCell::new(Vec::new()));

        for i in 0..3 {
            let log = log.clone();
            let w2 = w.clone();
            t.exec(Dur::ZERO, move |th| {
                log.borrow_mut().push((i, w2.now().nanos()));
                th.charge(Dur::nanos(100));
            });
        }
        w.run();
        // Each handler starts when the previous one's charge ends.
        assert_eq!(*log.borrow(), vec![(0, 0), (1, 100), (2, 200)]);
        assert_eq!(t.total_busy().as_nanos(), 300);
    }

    #[test]
    fn after_delay_respected_and_queue_order_kept() {
        let w = World::new();
        let t = CpuThread::new(w.clone(), "t0");
        let log = Rc::new(RefCell::new(Vec::new()));

        let l1 = log.clone();
        let w1 = w.clone();
        t.exec(Dur::nanos(50), move |th| {
            l1.borrow_mut().push(("a", w1.now().nanos()));
            th.charge(Dur::nanos(500));
        });
        let l2 = log.clone();
        let w2 = w.clone();
        // Submitted second with a shorter delay, but the slot reservation
        // puts it behind the first (run-to-complete FIFO).
        t.exec(Dur::nanos(10), move |_| {
            l2.borrow_mut().push(("b", w2.now().nanos()));
        });
        w.run();
        assert_eq!(*log.borrow(), vec![("a", 50), ("b", 550)]);
    }

    #[test]
    fn zero_cost_handlers_share_instant() {
        let w = World::new();
        let t = CpuThread::new(w.clone(), "t0");
        let count = Rc::new(Cell::new(0));
        for _ in 0..5 {
            let c = count.clone();
            t.exec(Dur::ZERO, move |_| c.set(c.get() + 1));
        }
        w.run();
        assert_eq!(count.get(), 5);
        assert_eq!(w.now(), Time::ZERO);
        assert_eq!(t.total_busy().as_nanos(), 0);
        assert_eq!(t.items_executed(), 5, "each handler is one quantum");
    }

    #[test]
    fn observer_sees_start_and_cost() {
        let w = World::new();
        let t = CpuThread::new(w.clone(), "t0");
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        t.observe(move |start, cost| s.borrow_mut().push((start.nanos(), cost.as_nanos())));
        t.exec(Dur::nanos(5), |th| th.charge(Dur::nanos(42)));
        w.run();
        assert_eq!(*seen.borrow(), vec![(5, 42)]);
    }

    #[test]
    fn nested_submission_from_handler() {
        let w = World::new();
        let t = CpuThread::new(w.clone(), "t0");
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        let w2 = w.clone();
        t.exec(Dur::ZERO, move |th| {
            th.charge(Dur::nanos(10));
            let d2 = d.clone();
            let w3 = w2.clone();
            th.exec(Dur::ZERO, move |_| d2.set(w3.now().nanos()));
        });
        w.run();
        assert_eq!(done.get(), 10, "follow-up runs after the charge");
    }

    #[test]
    fn dropped_thread_stops_running_its_queue() {
        let w = World::new();
        let t = CpuThread::new(w.clone(), "t0");
        let ran = Rc::new(Cell::new(false));
        let r = ran.clone();
        t.exec(Dur::nanos(10), move |_| r.set(true));
        assert_eq!(w.pending(), 1, "one pump armed");
        drop(t);
        assert_eq!(w.pending(), 0, "the pump is cancelled with the thread");
        w.run();
        assert!(!ran.get());
    }
}
