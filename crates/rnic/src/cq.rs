//! Completion queues and completion-queue entries.
//!
//! The queue here is a *shared* CQ in the X-RDMA sense (§IV of the paper):
//! many QPs register their send and receive completions into one queue, the
//! progress engine drains it in batches with [`SharedCq::poll_cq`], and the
//! one-shot notification arming means a burst of N CQEs costs a single
//! "CQ non-empty" wakeup instead of N per-CQE events. The counters kept on
//! the queue (`polls`, `empty_polls`, `notify_fires`) are the raw material
//! for the busy-poll/event-mode accounting in `xrdma-core::context`.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::verbs::{Qpn, WrId};
use xrdma_sim::inthash::IntSet;
use xrdma_telemetry::SpanToken;

/// Completion status, mirroring the interesting subset of `ibv_wc_status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeStatus {
    Success,
    /// Receiver-not-ready retries exhausted.
    RnrRetryExceeded,
    /// ACK timeout retries exhausted (peer dead or unreachable).
    RetryExceeded,
    /// Remote access error (bad rkey / bounds / permissions).
    RemoteAccessError,
    /// WR flushed because the QP entered the error state.
    WrFlushError,
}

impl CqeStatus {
    pub fn is_ok(self) -> bool {
        self == CqeStatus::Success
    }
}

/// What kind of completion this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeOpcode {
    Send,
    Write,
    Read,
    Atomic,
    /// Receive completion for an incoming Send.
    Recv,
    /// Receive completion for an incoming Write-with-immediate.
    RecvWriteImm,
}

/// A completion-queue entry.
#[derive(Clone, Debug)]
pub struct Cqe {
    pub wr_id: WrId,
    pub status: CqeStatus,
    pub opcode: CqeOpcode,
    pub byte_len: u64,
    pub imm: Option<u32>,
    pub qpn: Qpn,
    /// Causal span of the operation this CQE completes (receive CQEs carry
    /// the sender's span across; local completions are `NONE`).
    pub span: SpanToken,
}

/// A completion queue shared by many QPs, with bounded depth and one-shot
/// notification arming (`ibv_req_notify_cq` semantics).
pub struct SharedCq {
    pub id: u32,
    depth: usize,
    entries: RefCell<VecDeque<Cqe>>,
    /// One-shot: cleared when fired; re-arm to get the next edge.
    armed: Cell<bool>,
    notify: RefCell<Option<Box<dyn Fn()>>>,
    overflowed: Cell<bool>,
    total_pushed: Cell<u64>,
    /// QPs currently registered into this CQ.
    qps: RefCell<IntSet<Qpn>>,
    /// `poll_cq` calls, and the subset that drained nothing.
    polls: Cell<u64>,
    empty_polls: Cell<u64>,
    /// Notification callbacks actually delivered ("CQ non-empty" edges).
    /// `total_pushed - notify_fires` is the number of per-CQE wakeups the
    /// shared queue coalesced away.
    notify_fires: Cell<u64>,
}

/// Historical name; every QP-owning caller predating the shared-CQ fast
/// path uses it. Same type.
pub type CompletionQueue = SharedCq;

impl SharedCq {
    pub fn new(id: u32, depth: usize) -> Rc<SharedCq> {
        assert!(depth > 0);
        Rc::new(SharedCq {
            id,
            depth,
            entries: RefCell::new(VecDeque::new()),
            armed: Cell::new(false),
            notify: RefCell::new(None),
            overflowed: Cell::new(false),
            total_pushed: Cell::new(0),
            qps: RefCell::new(IntSet::default()),
            polls: Cell::new(0),
            empty_polls: Cell::new(0),
            notify_fires: Cell::new(0),
        })
    }

    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Register a QP whose completions land in this queue. Idempotent; the
    /// same CQ may serve as both send and receive CQ for one QP.
    pub fn register_qp(&self, qpn: Qpn) {
        self.qps.borrow_mut().insert(qpn);
    }

    /// Remove a destroyed QP from the registration set.
    pub fn deregister_qp(&self, qpn: Qpn) {
        self.qps.borrow_mut().remove(&qpn);
    }

    /// Number of QPs currently registered into this queue.
    pub fn qp_count(&self) -> usize {
        self.qps.borrow().len()
    }

    /// Install the notification callback (the simulated completion channel).
    pub fn set_notify(&self, f: impl Fn() + 'static) {
        // xrdma-lint: allow(hot-path-alloc) -- one-time setup, not per-CQE
        *self.notify.borrow_mut() = Some(Box::new(f));
    }

    /// Arm one notification for the next pushed CQE. If entries are already
    /// pending the notification fires immediately (no lost wakeups).
    pub fn req_notify(&self) {
        if !self.entries.borrow().is_empty() {
            self.fire();
        } else {
            self.armed.set(true);
        }
    }

    fn fire(&self) {
        self.armed.set(false);
        self.notify_fires.set(self.notify_fires.get() + 1);
        if let Some(f) = self.notify.borrow().as_ref() {
            f();
        }
    }

    /// Push a completion. Overflow (more CQEs than depth) is a programming
    /// error on real hardware that wedges the QP; we record it and keep the
    /// entry so tests can assert on it.
    pub fn push(&self, cqe: Cqe) {
        {
            let mut q = self.entries.borrow_mut();
            if q.len() >= self.depth {
                self.overflowed.set(true);
            }
            q.push_back(cqe);
        }
        self.total_pushed.set(self.total_pushed.get() + 1);
        if self.armed.get() {
            self.fire();
        }
    }

    /// Drain up to `max_batch` completions into `out` without allocating.
    /// `out` is cleared first; returns the number drained. This is the
    /// batched fast path: one call models one `ibv_poll_cq` invocation no
    /// matter how many CQEs it returns.
    pub fn poll_cq(&self, out: &mut Vec<Cqe>, max_batch: usize) -> usize {
        out.clear();
        let mut q = self.entries.borrow_mut();
        let n = max_batch.min(q.len());
        out.extend(q.drain(..n));
        self.polls.set(self.polls.get() + 1);
        if n == 0 {
            self.empty_polls.set(self.empty_polls.get() + 1);
        }
        n
    }

    /// Poll up to `max` completions into a fresh vector. Convenience shim
    /// over [`SharedCq::poll_cq`] for tests and setup paths; the progress
    /// engine reuses a scratch buffer instead.
    pub fn poll(&self, max: usize) -> Vec<Cqe> {
        let mut out = Vec::with_capacity(max.min(self.len()));
        self.poll_cq(&mut out, max);
        out
    }

    /// Poll a single completion.
    pub fn poll_one(&self) -> Option<Cqe> {
        self.entries.borrow_mut().pop_front()
    }

    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    pub fn overflowed(&self) -> bool {
        self.overflowed.get()
    }

    pub fn total_pushed(&self) -> u64 {
        self.total_pushed.get()
    }

    /// `poll_cq` calls so far.
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }

    /// `poll_cq` calls that drained nothing.
    pub fn empty_polls(&self) -> u64 {
        self.empty_polls.get()
    }

    /// Notification callbacks delivered.
    pub fn notify_fires(&self) -> u64 {
        self.notify_fires.get()
    }

    /// Per-CQE wakeups avoided by notification coalescing: CQEs pushed
    /// minus "CQ non-empty" edges actually delivered.
    pub fn coalesced_wakeups(&self) -> u64 {
        self.total_pushed
            .get()
            .saturating_sub(self.notify_fires.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cqe(wr_id: u64) -> Cqe {
        Cqe {
            wr_id,
            status: CqeStatus::Success,
            opcode: CqeOpcode::Send,
            byte_len: 0,
            imm: None,
            qpn: Qpn(1),
            span: SpanToken::NONE,
        }
    }

    #[test]
    fn fifo_poll() {
        let cq = CompletionQueue::new(0, 16);
        for i in 0..5 {
            cq.push(cqe(i));
        }
        let got = cq.poll(3);
        assert_eq!(
            got.iter().map(|c| c.wr_id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.poll(10).len(), 2);
        assert!(cq.is_empty());
        assert_eq!(cq.total_pushed(), 5);
    }

    #[test]
    fn one_shot_notification() {
        let cq = CompletionQueue::new(0, 16);
        let fired = Rc::new(Cell::new(0));
        let f = fired.clone();
        cq.set_notify(move || f.set(f.get() + 1));
        cq.push(cqe(1));
        assert_eq!(fired.get(), 0, "not armed yet");
        cq.req_notify();
        assert_eq!(fired.get(), 1, "pending entry fires immediately");
        cq.push(cqe(2));
        assert_eq!(fired.get(), 1, "one-shot: no second fire without re-arm");
        cq.poll(10);
        cq.req_notify();
        cq.push(cqe(3));
        assert_eq!(fired.get(), 2);
        assert_eq!(cq.notify_fires(), 2);
        assert_eq!(cq.coalesced_wakeups(), 1, "3 CQEs, 2 wakeups delivered");
    }

    #[test]
    fn overflow_detected() {
        let cq = CompletionQueue::new(0, 2);
        cq.push(cqe(1));
        cq.push(cqe(2));
        assert!(!cq.overflowed());
        cq.push(cqe(3));
        assert!(cq.overflowed());
        assert_eq!(cq.len(), 3, "entry kept for diagnosis");
    }

    #[test]
    fn poll_one() {
        let cq = CompletionQueue::new(0, 4);
        assert!(cq.poll_one().is_none());
        cq.push(cqe(7));
        assert_eq!(cq.poll_one().unwrap().wr_id, 7);
    }

    #[test]
    fn poll_cq_reuses_buffer_and_counts() {
        let cq = SharedCq::new(0, 16);
        let mut buf = vec![cqe(99)]; // stale content must be cleared
        assert_eq!(cq.poll_cq(&mut buf, 8), 0);
        assert!(buf.is_empty());
        assert_eq!(cq.empty_polls(), 1);
        for i in 0..6 {
            cq.push(cqe(i));
        }
        assert_eq!(cq.poll_cq(&mut buf, 4), 4);
        assert_eq!(
            buf.iter().map(|c| c.wr_id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(cq.poll_cq(&mut buf, 4), 2, "tail batch smaller than max");
        assert_eq!(buf.len(), 2);
        assert_eq!(cq.polls(), 3);
        assert_eq!(cq.empty_polls(), 1);
    }

    #[test]
    fn qp_registration_tracks_membership() {
        let cq = SharedCq::new(0, 16);
        cq.register_qp(Qpn(3));
        cq.register_qp(Qpn(5));
        cq.register_qp(Qpn(3)); // idempotent
        assert_eq!(cq.qp_count(), 2);
        cq.deregister_qp(Qpn(3));
        assert_eq!(cq.qp_count(), 1);
        cq.deregister_qp(Qpn(42)); // unknown QP is a no-op
        assert_eq!(cq.qp_count(), 1);
    }
}
