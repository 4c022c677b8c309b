//! Per-host RNIC state for the lane engine (DESIGN.md §3.15): the
//! port of the QP / CQ / DCQCN data path from the `Rc<World>`-rooted
//! [`crate::engine::Rnic`] onto plain owned structs.
//!
//! The porting rules this module demonstrates:
//!
//! * **Handle indices instead of `Rc` reachability.** A QP is
//!   `rnic.qps[qpn]`; a peer QP is `(peer_host, peer_qpn)` — plain
//!   numbers that cross lanes inside packets, never pointers.
//! * **Emission, not scheduling.** Methods return what must happen
//!   ([`Pump`], [`RxData`]) and the glue layer (xrdma-core's lane
//!   module) owns the calendar, so every timer arm happens at a
//!   seq-allocation point the glue chooses.
//! * **Reuse of the pure protocol cores.** [`DcqcnRp`]/[`DcqcnNp`] and
//!   the RESET→INIT→RTR→RTS [`QpState`] discipline are shared with the
//!   serial stack verbatim — they were already plain data.
//!
//! The data path itself is the serial engine's, at packet granularity:
//! MTU fragmentation, per-packet PSNs, cumulative hardware ACK, NAK on
//! sequence gap, go-back-N retransmission from the oldest unacked PSN,
//! DCQCN pacing on the send side and ECN→CNP on the receive side.

use std::collections::VecDeque;

use crate::dcqcn::{DcqcnNp, DcqcnRp};
use crate::qp::QpState;

/// Wire overhead per packet (Eth + IP + UDP + BTH ≈ 64 B), matching the
/// serial fabric's accounting.
pub const LANE_HDR_BYTES: u32 = 64;
/// Path MTU for fragmentation.
pub const LANE_MTU: u32 = 4096;
/// Go-back-N retransmission timeout.
pub const RETX_TIMEOUT_NS: u64 = 500_000;

/// RNIC-lane tunables.
#[derive(Clone, Copy, Debug)]
pub struct RnicLaneConfig {
    /// Hardware ACK window: max unacked fragments in flight per QP.
    pub max_unacked: usize,
}

impl Default for RnicLaneConfig {
    fn default() -> RnicLaneConfig {
        RnicLaneConfig { max_unacked: 64 }
    }
}

/// The lane stack's base transport header. `M` is the middleware message
/// riding on the last fragment (`Clone` because go-back-N may resend it).
#[derive(Clone, Debug)]
pub struct LaneBth<M> {
    pub src_host: u32,
    pub src_qpn: u32,
    pub dst_qpn: u32,
    /// Connection token: stale packets from a previous incarnation of
    /// this QP pair are rejected, as in the serial engine.
    pub token: u64,
    pub kind: LaneBthKind<M>,
}

#[derive(Clone, Debug)]
pub enum LaneBthKind<M> {
    Data {
        psn: u32,
        frag_bytes: u32,
        last: bool,
        /// Present on the last fragment only: the reassembled message.
        msg: Option<M>,
    },
    /// Cumulative acknowledgement: every PSN `< psn` is delivered.
    Ack { psn: u32 },
    /// Sequence-gap NAK: receiver expected `expected`.
    Nak { expected: u32 },
    /// DCQCN congestion notification.
    Cnp,
}

impl<M> LaneBth<M> {
    /// Wire size of the packet carrying this header.
    pub fn wire_bytes(&self) -> u32 {
        match &self.kind {
            LaneBthKind::Data { frag_bytes, .. } => LANE_HDR_BYTES + frag_bytes,
            _ => LANE_HDR_BYTES,
        }
    }
}

/// A posted send WR (one middleware message).
#[derive(Clone, Debug)]
struct SqWrLane<M> {
    wr_id: u64,
    size: u32,
    msg: M,
}

/// One transmitted, not-yet-acked fragment (the go-back-N window entry).
#[derive(Clone, Debug)]
struct UnackedLane<M> {
    psn: u32,
    frag_bytes: u32,
    last: bool,
    wr_id: u64,
    msg: Option<M>,
}

/// What the send-side pump wants next.
#[derive(Debug)]
pub enum Pump<M> {
    /// Hand this packet to the NIC egress now.
    Tx(LaneBth<M>),
    /// Pacing: nothing may launch before this instant.
    WaitUntil(u64),
    /// Nothing to send (empty SQ, closed window, or wrong state).
    Idle,
}

/// Receive verdict for one data packet.
#[derive(Debug)]
pub struct RxData<M> {
    /// A fully reassembled in-order message to deliver upward.
    pub deliver: Option<M>,
    /// Cumulative ACK to emit (every data packet is acked, as hardware
    /// does; the value is the next expected PSN).
    pub ack: Option<u32>,
    /// Sequence gap: emit a NAK for this expected PSN (sent once per
    /// gap, suppressed until the gap closes).
    pub nak: Option<u32>,
    /// ECN mark seen and the NP pacer allows a CNP now.
    pub cnp: bool,
}

impl<M> Default for RxData<M> {
    fn default() -> RxData<M> {
        RxData {
            deliver: None,
            ack: None,
            nak: None,
            cnp: false,
        }
    }
}

/// One RC queue pair as owned lane state.
#[derive(Debug)]
pub struct QpLane<M> {
    pub qpn: u32,
    pub peer_host: u32,
    pub peer_qpn: u32,
    pub token: u64,
    pub state: QpState,
    // --- send side ---
    sq: VecDeque<SqWrLane<M>>,
    /// Bytes of `sq.front()` already fragmented onto the wire.
    cur_off: u32,
    next_psn: u32,
    unacked: VecDeque<UnackedLane<M>>,
    /// Index into `unacked` from which fragments must be (re)sent;
    /// `== unacked.len()` means everything transmitted once.
    resend: usize,
    pub rp: DcqcnRp,
    pacing_next_ns: u64,
    /// Glue flag: a pacing wakeup is already scheduled.
    pub pacing_armed: bool,
    /// Glue flag: a retransmission timer is outstanding.
    pub retx_armed: bool,
    /// Lazy retx deadline: pushed forward on every ack progress.
    pub retx_deadline_ns: u64,
    /// Glue flag: a DCQCN reaction-point tick chain is running.
    pub dcqcn_armed: bool,
    pub retransmissions: u64,
    // --- receive side ---
    expected_psn: u32,
    /// Suppresses duplicate NAKs for the same gap.
    nak_sent_for: Option<u32>,
    pub np: DcqcnNp,
    // --- counters ---
    pub tx_msgs: u64,
    pub rx_msgs: u64,
    pub tx_frags: u64,
    pub rx_frags: u64,
    pub dup_frags: u64,
    pub cnps_rx: u64,
    // Copied from the RNIC config at create_qp so pump() needs no
    // config reference.
    max_unacked: usize,
}

impl<M: Clone> QpLane<M> {
    fn new(qpn: u32) -> QpLane<M> {
        QpLane {
            qpn,
            peer_host: u32::MAX,
            peer_qpn: u32::MAX,
            token: 0,
            state: QpState::Reset,
            sq: VecDeque::new(),
            cur_off: 0,
            next_psn: 0,
            unacked: VecDeque::new(),
            resend: 0,
            rp: DcqcnRp::new(),
            pacing_next_ns: 0,
            pacing_armed: false,
            retx_armed: false,
            retx_deadline_ns: 0,
            dcqcn_armed: false,
            retransmissions: 0,
            expected_psn: 0,
            nak_sent_for: None,
            np: DcqcnNp::default(),
            tx_msgs: 0,
            rx_msgs: 0,
            tx_frags: 0,
            rx_frags: 0,
            dup_frags: 0,
            cnps_rx: 0,
            max_unacked: 64,
        }
    }

    /// Walk the verbs state ladder to RTS against `(peer_host,
    /// peer_qpn, token)` — the same RESET→INIT→RTR→RTS transitions the
    /// serial QP enforces, collapsed into the post-handshake call.
    pub fn connect(&mut self, peer_host: u32, peer_qpn: u32, token: u64) {
        assert_eq!(self.state, QpState::Reset, "connect from RESET only");
        self.peer_host = peer_host;
        self.peer_qpn = peer_qpn;
        self.token = token;
        self.state = QpState::Init;
        self.state = QpState::Rtr;
        self.state = QpState::Rts;
    }

    /// Post one message send. Returns false (and drops nothing) when the
    /// QP is not RTS.
    pub fn post_send(&mut self, wr_id: u64, size: u32, msg: M) -> bool {
        if self.state != QpState::Rts {
            return false;
        }
        self.sq.push_back(SqWrLane { wr_id, size, msg });
        true
    }

    /// Posted messages not yet fully fragmented plus unacked fragments —
    /// nonzero means the retx timer must stay armed.
    pub fn in_flight(&self) -> usize {
        self.sq.len() + self.unacked.len()
    }

    fn pace_ns(&self, wire_bytes: u32) -> u64 {
        let ns = f64::from(wire_bytes) * 8.0 / self.rp.rate_gbps();
        (ns as u64).max(1)
    }

    /// Produce the next packet the send side owes the wire, if pacing
    /// and the ack window allow. Retransmissions (entries at and past
    /// `resend`) always go out before new fragments.
    pub fn pump(&mut self, now_ns: u64) -> Pump<M> {
        if self.state != QpState::Rts {
            return Pump::Idle;
        }
        let has_retx = self.resend < self.unacked.len();
        if !has_retx && self.sq.is_empty() {
            return Pump::Idle;
        }
        if !has_retx && self.unacked.len() >= self.max_unacked_cap() {
            return Pump::Idle; // ack-clocked: window closed
        }
        if now_ns < self.pacing_next_ns {
            return Pump::WaitUntil(self.pacing_next_ns);
        }
        let bth = if has_retx {
            let d = &self.unacked[self.resend];
            self.resend += 1;
            self.tx_frags += 1;
            LaneBth {
                src_host: u32::MAX, // stamped by the glue
                src_qpn: self.qpn,
                dst_qpn: self.peer_qpn,
                token: self.token,
                kind: LaneBthKind::Data {
                    psn: d.psn,
                    frag_bytes: d.frag_bytes,
                    last: d.last,
                    msg: d.msg.clone(),
                },
            }
        } else {
            let Some(wr) = self.sq.front() else {
                return Pump::Idle;
            };
            let remaining = wr.size - self.cur_off;
            let frag_bytes = remaining.min(LANE_MTU);
            let last = self.cur_off + frag_bytes == wr.size;
            let psn = self.next_psn;
            self.next_psn = self.next_psn.wrapping_add(1);
            self.tx_frags += 1;
            let (wr_id, msg) = if last {
                // xrdma-lint: allow(unwrap-in-api) -- front() was read above in this branch; this pops that same WR
                let wr = self.sq.pop_front().expect("front");
                self.cur_off = 0;
                self.tx_msgs += 1;
                (wr.wr_id, Some(wr.msg))
            } else {
                self.cur_off += frag_bytes;
                (wr.wr_id, None)
            };
            self.unacked.push_back(UnackedLane {
                psn,
                frag_bytes,
                last,
                wr_id,
                msg: msg.clone(),
            });
            self.resend = self.unacked.len();
            LaneBth {
                src_host: u32::MAX,
                src_qpn: self.qpn,
                dst_qpn: self.peer_qpn,
                token: self.token,
                kind: LaneBthKind::Data {
                    psn,
                    frag_bytes,
                    last,
                    msg,
                },
            }
        };
        let wire = bth.wire_bytes();
        self.pacing_next_ns = now_ns + self.pace_ns(wire);
        self.rp
            .on_bytes_sent(xrdma_sim::Time(now_ns), u64::from(wire));
        Pump::Tx(bth)
    }

    // The cap lives on the config; stored per QP to keep the struct free
    // of a config copy. Set by `RnicLane` before pumping.
    fn max_unacked_cap(&self) -> usize {
        self.max_unacked
    }

    /// Cumulative ACK: release every fragment with PSN `< psn`, pushing
    /// a CQE per completed message. Returns the released fragment count.
    pub fn on_ack(&mut self, now_ns: u64, psn: u32, cq: &mut CqLane) -> u64 {
        let mut released = 0u64;
        while let Some(front) = self.unacked.front() {
            // Wrapping "front.psn < psn": the in-flight window is tiny
            // compared to the u32 circle.
            if psn.wrapping_sub(front.psn) == 0 || psn.wrapping_sub(front.psn) > u32::MAX / 2 {
                break;
            }
            let Some(d) = self.unacked.pop_front() else {
                break;
            };
            self.resend = self.resend.saturating_sub(1).min(self.unacked.len());
            if d.last {
                cq.push(self.qpn, d.wr_id);
            }
            released += 1;
        }
        if released > 0 {
            self.retx_deadline_ns = now_ns + RETX_TIMEOUT_NS;
        }
        released
    }

    /// Peer NAK: rewind transmission to the peer's expected PSN
    /// (go-back-N) so every fragment from the gap on is resent.
    pub fn on_nak(&mut self, expected: u32) {
        if let Some(front) = self.unacked.front() {
            let idx = expected.wrapping_sub(front.psn) as usize;
            if idx < self.unacked.len() && idx < self.resend {
                self.resend = idx;
                self.retransmissions += 1;
            }
        }
    }

    /// Retransmission timer fired. Returns the deadline to re-arm at
    /// (lazy reprogramming: ack progress pushed it forward), or `None`
    /// when nothing is in flight. On a true expiry the window rewinds to
    /// the oldest unacked fragment.
    pub fn on_retx_timeout(&mut self, now_ns: u64) -> Option<u64> {
        if self.unacked.is_empty() {
            return None;
        }
        if now_ns < self.retx_deadline_ns {
            return Some(self.retx_deadline_ns);
        }
        self.resend = 0;
        self.retransmissions += 1;
        self.retx_deadline_ns = now_ns + RETX_TIMEOUT_NS;
        Some(self.retx_deadline_ns)
    }

    /// A CNP arrived for this QP: DCQCN rate cut.
    pub fn on_cnp(&mut self, now_ns: u64) {
        self.cnps_rx += 1;
        self.rp.on_cnp(xrdma_sim::Time(now_ns));
    }

    /// Receive one data fragment. Every packet is acked (cumulative);
    /// gaps NAK once; ECN marks may emit a CNP subject to NP pacing.
    pub fn on_data(
        &mut self,
        now_ns: u64,
        psn: u32,
        last: bool,
        msg: Option<M>,
        ecn: bool,
    ) -> RxData<M> {
        let mut out = RxData::default();
        if psn == self.expected_psn {
            self.expected_psn = self.expected_psn.wrapping_add(1);
            self.nak_sent_for = None;
            self.rx_frags += 1;
            if last {
                self.rx_msgs += 1;
                debug_assert!(msg.is_some(), "last fragment carries the message");
                out.deliver = msg;
            }
            out.ack = Some(self.expected_psn);
        } else if self.expected_psn.wrapping_sub(psn) <= u32::MAX / 2 {
            // Behind the edge: duplicate of something delivered — re-ack
            // so the sender's window can advance past a lost ACK.
            self.dup_frags += 1;
            out.ack = Some(self.expected_psn);
        } else {
            // Ahead of the edge: a fragment was lost. NAK once per gap.
            if self.nak_sent_for != Some(self.expected_psn) {
                self.nak_sent_for = Some(self.expected_psn);
                out.nak = Some(self.expected_psn);
            }
        }
        if ecn && self.np.should_send_cnp(xrdma_sim::Time(now_ns)) {
            out.cnp = true;
        }
        out
    }
}

/// Completion queue as owned lane state: a FIFO of `(qpn, wr_id)` pairs
/// with drain-batch statistics (the shared-CQ batching signal xr-stat
/// reports for the serial stack).
#[derive(Debug, Default)]
pub struct CqLane {
    queue: VecDeque<(u32, u64)>,
    pub cqes: u64,
    pub polls: u64,
    pub max_batch: u64,
}

impl CqLane {
    pub fn push(&mut self, qpn: u32, wr_id: u64) {
        self.queue.push_back((qpn, wr_id));
        self.cqes += 1;
    }

    /// Drain every pending CQE into `out` (appending), recording batch
    /// statistics. Returns the batch size.
    pub fn drain(&mut self, out: &mut Vec<(u32, u64)>) -> usize {
        let n = self.queue.len();
        if n > 0 {
            self.polls += 1;
            self.max_batch = self.max_batch.max(n as u64);
            out.extend(self.queue.drain(..));
        }
        n
    }

    pub fn depth(&self) -> usize {
        self.queue.len()
    }
}

/// Per-host RNIC: the QP table (handle-indexed) plus the shared CQ.
#[derive(Debug)]
pub struct RnicLane<M> {
    pub cfg: RnicLaneConfig,
    pub qps: Vec<QpLane<M>>,
    pub cq: CqLane,
    /// Packets rejected by token/QPN validation (stale incarnations).
    pub stale_pkts: u64,
}

impl<M: Clone> RnicLane<M> {
    pub fn new(cfg: RnicLaneConfig) -> RnicLane<M> {
        RnicLane {
            cfg,
            qps: Vec::new(),
            cq: CqLane::default(),
            stale_pkts: 0,
        }
    }

    /// Allocate a QP in RESET; returns its handle (the index — the
    /// handle-index porting rule).
    pub fn create_qp(&mut self) -> u32 {
        let qpn = self.qps.len() as u32;
        let mut qp = QpLane::new(qpn);
        qp.max_unacked = self.cfg.max_unacked;
        self.qps.push(qp);
        qpn
    }

    pub fn qp(&mut self, qpn: u32) -> &mut QpLane<M> {
        &mut self.qps[qpn as usize]
    }

    /// Validate an arriving packet's destination QP and token. `None`
    /// means the packet is stale and must be dropped (counted).
    pub fn validate(&mut self, bth: &LaneBth<M>) -> Option<u32> {
        let Some(qp) = self.qps.get(bth.dst_qpn as usize) else {
            self.stale_pkts += 1;
            return None;
        };
        if qp.state != QpState::Rts || qp.token != bth.token {
            self.stale_pkts += 1;
            return None;
        }
        Some(bth.dst_qpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rnic() -> RnicLane<&'static str> {
        RnicLane::new(RnicLaneConfig::default())
    }

    /// Drive every packet `a`'s pump produces straight into `b`,
    /// returning delivered messages; acks flow back immediately.
    fn drive(
        a: &mut RnicLane<&'static str>,
        aq: u32,
        b: &mut RnicLane<&'static str>,
        bq: u32,
        now: &mut u64,
    ) -> Vec<&'static str> {
        let mut delivered = Vec::new();
        loop {
            match a.qp(aq).pump(*now) {
                Pump::Idle => break,
                Pump::WaitUntil(t) => *now = t,
                Pump::Tx(bth) => {
                    if let LaneBthKind::Data { psn, last, msg, .. } = bth.kind {
                        let rx = b.qp(bq).on_data(*now, psn, last, msg, false);
                        if let Some(m) = rx.deliver {
                            delivered.push(m);
                        }
                        if let Some(ack) = rx.ack {
                            let mut cq = std::mem::take(&mut a.cq);
                            a.qp(aq).on_ack(*now, ack, &mut cq);
                            a.cq = cq;
                        }
                    }
                }
            }
        }
        delivered
    }

    fn pair() -> (RnicLane<&'static str>, u32, RnicLane<&'static str>, u32) {
        let mut a = rnic();
        let mut b = rnic();
        let aq = a.create_qp();
        let bq = b.create_qp();
        a.qp(aq).connect(1, bq, 77);
        b.qp(bq).connect(0, aq, 77);
        (a, aq, b, bq)
    }

    #[test]
    fn fragments_and_reassembles_in_order() {
        let (mut a, aq, mut b, bq) = pair();
        assert!(a.qp(aq).post_send(1, 10_000, "big")); // 3 frags at 4 KiB
        assert!(a.qp(aq).post_send(2, 100, "small")); // 1 frag
        let mut now = 0;
        let got = drive(&mut a, aq, &mut b, bq, &mut now);
        assert_eq!(got, vec!["big", "small"]);
        assert_eq!(a.qp(aq).tx_frags, 4);
        assert_eq!(b.qp(bq).rx_msgs, 2);
        // Both messages completed on the sender CQ.
        let mut out = Vec::new();
        a.cq.drain(&mut out);
        assert_eq!(out, vec![(aq, 1), (aq, 2)]);
        assert_eq!(a.qp(aq).in_flight(), 0);
    }

    #[test]
    fn gap_naks_once_and_goes_back_n() {
        let (mut a, aq, mut b, bq) = pair();
        a.qp(aq).post_send(1, 9000, "m"); // 3 frags: psn 0,1,2
        let mut pkts = Vec::new();
        let mut now = 0;
        loop {
            match a.qp(aq).pump(now) {
                Pump::Idle => break,
                Pump::WaitUntil(t) => now = t,
                Pump::Tx(bth) => pkts.push(bth),
            }
        }
        assert_eq!(pkts.len(), 3);
        // Lose psn 0; deliver psn 1 → NAK(0), once.
        let LaneBthKind::Data { psn, last, msg, .. } = pkts[1].kind.clone() else {
            panic!("data")
        };
        let rx = b.qp(bq).on_data(now, psn, last, msg, false);
        assert_eq!(rx.nak, Some(0));
        assert!(rx.deliver.is_none() && rx.ack.is_none());
        // Same gap again (psn 2): NAK suppressed.
        let LaneBthKind::Data { psn, last, msg, .. } = pkts[2].kind.clone() else {
            panic!("data")
        };
        let rx = b.qp(bq).on_data(now, psn, last, msg, false);
        assert_eq!(rx.nak, None, "one NAK per gap");
        // Sender rewinds to 0 and the full retry completes the message.
        a.qp(aq).on_nak(0);
        assert_eq!(a.qp(aq).retransmissions, 1);
        let got = drive(&mut a, aq, &mut b, bq, &mut now);
        assert_eq!(got, vec!["m"]);
        // Out-of-order frags were dropped (not buffered), so the full
        // go-back-N replay arrives fresh: 3 in-order receptions total.
        assert_eq!(b.qp(bq).rx_frags, 3);
    }

    #[test]
    fn retx_timer_is_lazy_and_rewinds_on_expiry() {
        let (mut a, aq, _b, _bq) = pair();
        a.qp(aq).post_send(1, 100, "m");
        let mut now = 0;
        while let Pump::Tx(_) | Pump::WaitUntil(_) = {
            let p = a.qp(aq).pump(now);
            if let Pump::WaitUntil(t) = p {
                now = t;
            }
            p
        } {}
        a.qp(aq).retx_deadline_ns = 500_000;
        // Early fire: just re-arm at the stored deadline.
        assert_eq!(a.qp(aq).on_retx_timeout(100_000), Some(500_000));
        assert_eq!(a.qp(aq).retransmissions, 0);
        // True expiry: rewind and count.
        assert_eq!(a.qp(aq).on_retx_timeout(600_000), Some(1_100_000));
        assert_eq!(a.qp(aq).retransmissions, 1);
        match a.qp(aq).pump(now.max(600_000)) {
            Pump::Tx(bth) => match bth.kind {
                LaneBthKind::Data { psn, .. } => assert_eq!(psn, 0, "resends from oldest"),
                k => panic!("expected data, got {k:?}"),
            },
            p => panic!("expected retx, got {p:?}"),
        }
    }

    #[test]
    fn window_closes_at_max_unacked() {
        let mut a: RnicLane<&'static str> = RnicLane::new(RnicLaneConfig { max_unacked: 2 });
        let aq = a.create_qp();
        a.qp(aq).connect(1, 0, 9);
        a.qp(aq).post_send(1, 100_000, "w"); // many frags
        let mut now = 0;
        let mut sent = 0;
        loop {
            match a.qp(aq).pump(now) {
                Pump::Tx(_) => sent += 1,
                Pump::WaitUntil(t) => now = t,
                Pump::Idle => break,
            }
        }
        assert_eq!(sent, 2, "ack-clocked window closes");
        // One cumulative ack reopens it.
        let mut cq = CqLane::default();
        let mut qp = std::mem::replace(a.qp(aq), QpLane::new(0));
        qp.on_ack(now, 1, &mut cq);
        assert!(matches!(qp.pump(now), Pump::WaitUntil(_) | Pump::Tx(_)));
        *a.qp(aq) = qp;
    }

    #[test]
    fn ecn_packets_emit_paced_cnps_and_cut_rate() {
        let (mut a, aq, mut b, bq) = pair();
        let rx = b.qp(bq).on_data(0, 0, true, Some("x"), true);
        assert!(rx.cnp, "first ECN mark emits a CNP");
        let rx = b.qp(bq).on_data(1_000, 1, true, Some("y"), true);
        assert!(!rx.cnp, "CNP paced within the interval");
        let line = a.qp(aq).rp.rate_gbps();
        a.qp(aq).on_cnp(0);
        assert!(a.qp(aq).rp.rate_gbps() < line, "rate cut");
        assert_eq!(a.qp(aq).cnps_rx, 1);
    }

    #[test]
    fn stale_tokens_rejected() {
        let (mut a, _aq, _b, _bq) = pair();
        let bth: LaneBth<&'static str> = LaneBth {
            src_host: 1,
            src_qpn: 0,
            dst_qpn: 0,
            token: 999, // wrong incarnation
            kind: LaneBthKind::Ack { psn: 1 },
        };
        assert_eq!(a.validate(&bth), None);
        assert_eq!(a.stale_pkts, 1);
        let bad_qpn = LaneBth { dst_qpn: 42, ..bth };
        assert_eq!(a.validate(&bad_qpn), None);
        assert_eq!(a.stale_pkts, 2);
    }
}
