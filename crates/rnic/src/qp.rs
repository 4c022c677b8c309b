//! Queue pairs: the RC state machine plus the per-QP protocol state the
//! engine drives (send pipeline, retransmit window, receive reassembly,
//! DCQCN instances, pacing).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use xrdma_fabric::NodeId;
use xrdma_sim::{invariant, Time};
use xrdma_telemetry::tele;

use crate::cq::CompletionQueue;
use crate::dcqcn::{DcqcnNp, DcqcnRp};
use crate::engine::MAX_INFLIGHT_MSGS;
use crate::verbs::{Qpn, RecvWr, SendWr, VerbsError};
use crate::wire::{Bth, FragData};

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

/// A FIFO of posted receive WRs, stored as runs. Consumers post slots
/// carved in order from one buffer and repost them as they free up, so
/// consecutive WRs almost always continue each other: the next `wr_id`,
/// the next `len`-sized buffer, the same `len` and `lkey`. A run holds
/// such a stretch as its oldest WR plus a count (32 B, what one
/// [`RecvWr`] costs), so a queue costs its runs, not its posted WRs.
/// [`RecvQueue::pop`] hands out exactly the WRs, in exactly the order,
/// they were pushed; where no WR continues its predecessor every run
/// holds one and the queue costs what a `VecDeque<RecvWr>` would.
#[derive(Default)]
pub(crate) struct RecvQueue {
    runs: VecDeque<RecvRun>,
    len: usize,
}

/// WR `k` of a run is `(wr_id + k, addr + k × len, len, lkey)`; a run
/// in the queue holds at least one WR.
#[derive(Clone, Copy)]
struct RecvRun {
    wr_id: u64,
    addr: u64,
    len: u64,
    lkey: u32,
    count: u32,
}

impl RecvQueue {
    /// Append `wr`, extending the tail run when it continues it.
    pub(crate) fn push(&mut self, wr: RecvWr) {
        self.len += 1;
        if let Some(r) = self.runs.back_mut() {
            let k = u64::from(r.count);
            if r.count < u32::MAX
                && (r.len, r.lkey) == (wr.len, wr.lkey)
                && r.wr_id.wrapping_add(k) == wr.wr_id
                && r.addr.wrapping_add(k.wrapping_mul(r.len)) == wr.addr
            {
                r.count += 1;
                return;
            }
        }
        self.runs.push_back(RecvRun {
            wr_id: wr.wr_id,
            addr: wr.addr,
            len: wr.len,
            lkey: wr.lkey,
            count: 1,
        });
    }

    /// Take the oldest WR.
    pub(crate) fn pop(&mut self) -> Option<RecvWr> {
        let r = self.runs.front_mut()?;
        let wr = RecvWr::new(r.wr_id, r.addr, r.len, r.lkey);
        r.count -= 1;
        if r.count == 0 {
            self.runs.pop_front();
        } else {
            r.wr_id = r.wr_id.wrapping_add(1);
            r.addr = r.addr.wrapping_add(r.len);
        }
        self.len -= 1;
        Some(wr)
    }

    /// Posted WRs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Stored runs.
    #[cfg(test)]
    fn runs_len(&self) -> usize {
        self.runs.len()
    }
}

/// A shared receive queue (§VII-F "Pay attention to SRQ"): several QPs draw
/// receive WRs from one pool, trading memory for RNR risk under bursts.
/// Its WRs are a [`RecvQueue`]: a pool of slots carved from a few arenas
/// and reposted in the order they were taken costs a few runs however
/// deep it is.
pub struct Srq {
    pub id: u32,
    depth: usize,
    wrs: RefCell<RecvQueue>,
}

impl Srq {
    pub fn new(id: u32, depth: usize) -> Rc<Srq> {
        Rc::new(Srq {
            id,
            depth,
            wrs: RefCell::new(RecvQueue::default()),
        })
    }

    pub fn post(&self, wr: RecvWr) -> Result<(), VerbsError> {
        let mut q = self.wrs.borrow_mut();
        if q.len() >= self.depth {
            return Err(VerbsError::QueueFull);
        }
        q.push(wr);
        Ok(())
    }

    pub(crate) fn pop(&self) -> Option<RecvWr> {
        self.wrs.borrow_mut().pop()
    }

    pub fn len(&self) -> usize {
        self.wrs.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One started WR in the requester's [`InFlight`] table. It is
/// segmented where it stands and leaves only when it completes.
#[derive(Debug)]
pub(crate) struct Entry {
    pub wr: SendWr,
    /// Private: the table keeps entries in `seq` order.
    seq: u64,
    /// When the request last went out whole, or a Read's response last
    /// made progress: the retransmit clock runs from here.
    pub stamp: Time,
    /// Go-backs charged to this entry, against `retry_count`.
    pub retries: u32,
    pub sent_off: u64,
    /// WQE-processing cost charged yet?
    pub started: bool,
    /// Gather cache for `Payload::FromMr`: the whole message is copied out
    /// of the MR once, then every MTU fragment slices this shared buffer
    /// instead of re-reading (and re-allocating) per fragment. Dropped
    /// once the last fragment is out.
    pub gather: Option<bytes::Bytes>,
    /// Read response bytes landed so far.
    pub received: u64,
}

impl Entry {
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }
}

/// The requester's in-flight table: every started WR in sequence order,
/// from its first segment until its ACK, response or flush.
///
/// Entries before the `resend` cursor are on the wire whole; the entry at
/// it is being segmented; those after it wait to be replayed. Go-back-N
/// rewinds the cursor. The window counts what the responder may still
/// owe an answer for: every Read and atomic, and every other entry before
/// the cursor.
#[derive(Default)]
pub(crate) struct InFlight {
    entries: VecDeque<Entry>,
    resend: usize,
    window: usize,
}

impl InFlight {
    fn counts(&self, i: usize) -> bool {
        i < self.resend || self.entries[i].wr.op.is_fetch()
    }

    /// May another WR start?
    pub(crate) fn window_room(&self) -> bool {
        self.window < MAX_INFLIGHT_MSGS
    }

    /// Does an entry wait to be (re)segmented?
    pub(crate) fn has_work(&self) -> bool {
        self.resend < self.entries.len()
    }

    /// Does an entry on the wire wait for its ACK or response?
    pub(crate) fn awaiting(&self) -> bool {
        self.window > 0
    }

    /// Start `wr` as `seq`, behind every entry (nothing waits for replay).
    pub(crate) fn start(&mut self, wr: SendWr, seq: u64) {
        if wr.op.is_fetch() {
            self.window += 1;
        }
        self.entries.push_back(Entry {
            wr,
            seq,
            stamp: Time::ZERO,
            retries: 0,
            sent_off: 0,
            started: false,
            gather: None,
            received: 0,
        });
        self.check();
    }

    /// The entry to segment next.
    pub(crate) fn cursor(&mut self) -> Option<&mut Entry> {
        self.entries.get_mut(self.resend)
    }

    /// The entry at the cursor went out whole at `now`.
    pub(crate) fn sent(&mut self, now: Time) {
        let e = &mut self.entries[self.resend];
        e.stamp = now;
        e.received = 0;
        e.gather = None;
        if !e.wr.op.is_fetch() {
            self.window += 1;
        }
        self.resend += 1;
        self.check();
    }

    fn remove(&mut self, i: usize) -> Entry {
        if self.counts(i) {
            self.window -= 1;
        }
        if i < self.resend {
            self.resend -= 1;
        }
        self.entries.remove(i).expect("index in range")
    }

    fn find(&self, seq: u64) -> Option<usize> {
        self.entries.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        let i = self.find(seq)?;
        self.entries.get_mut(i)
    }

    /// Take out the entry for `seq` (its response completed it, or the
    /// responder refused it).
    pub(crate) fn take(&mut self, seq: u64) -> Option<Entry> {
        let e = self.remove(self.find(seq)?);
        self.check();
        Some(e)
    }

    /// Take out the entry at the cursor (its local gather failed).
    pub(crate) fn take_cursor(&mut self) -> Option<Entry> {
        let e = self.has_work().then(|| self.remove(self.resend));
        self.check();
        e
    }

    /// A cumulative ACK through `seq`: every Send and Write it covers
    /// leaves through `done`, in sequence order, wherever the cursor is.
    /// A covered Read or atomic stays for its response but is not
    /// replayed: the cursor moves past it.
    pub(crate) fn ack(&mut self, seq: u64, mut done: impl FnMut(Entry)) {
        let mut i = 0;
        while self.entries.get(i).is_some_and(|e| e.seq <= seq) {
            if self.entries[i].wr.op.is_fetch() {
                i += 1;
            } else {
                done(self.remove(i));
            }
        }
        self.resend = self.resend.max(i);
        self.check();
    }

    /// Go-back-N from `seq`: the cursor rewinds to the first entry at or
    /// past it, and every entry from there is resegmented from its first
    /// byte. Only that first entry is charged a retry, as real RC counts
    /// retries per stalled PSN; the rest are collateral. Returns the
    /// number of entries to replay and the charged entry's retries.
    pub(crate) fn go_back(&mut self, seq: u64) -> (u64, Option<u32>) {
        let to = self
            .entries
            .partition_point(|e| e.seq < seq)
            .min(self.resend);
        for (i, e) in self.entries.iter_mut().enumerate().skip(to) {
            if i < self.resend && !e.wr.op.is_fetch() {
                self.window -= 1;
            }
            e.sent_off = 0;
            e.started = false;
        }
        self.resend = to;
        let head = self.entries.get_mut(to).map(|e| {
            e.retries += 1;
            e.retries
        });
        self.check();
        ((self.entries.len() - to) as u64, head)
    }

    /// Empty the table for an error flush: every entry, in WR order.
    pub(crate) fn flush(&mut self) -> VecDeque<Entry> {
        self.resend = 0;
        self.window = 0;
        std::mem::take(&mut self.entries)
    }

    /// The oldest stamp in the window.
    pub(crate) fn oldest(&self) -> Option<Time> {
        (0..self.entries.len())
            .filter(|&i| self.counts(i))
            .map(|i| self.entries[i].stamp)
            .min()
    }

    /// Sequence numbers waiting for (re)segmenting, cursor first.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> Vec<u64> {
        self.entries
            .iter()
            .skip(self.resend)
            .map(|e| e.seq)
            .collect()
    }

    /// `debug_invariants`: sequence order, the cursor within the table,
    /// and the window count equal to a recount.
    fn check(&self) {
        invariant!(
            self.entries
                .iter()
                .zip(self.entries.iter().skip(1))
                .all(|(a, b)| a.seq < b.seq),
            "in-flight table out of sequence order"
        );
        invariant!(
            self.resend <= self.entries.len(),
            "in-flight cursor {} past {} entries",
            self.resend,
            self.entries.len()
        );
        invariant!(
            self.window == (0..self.entries.len()).filter(|&i| self.counts(i)).count(),
            "in-flight window count {} is not a recount",
            self.window
        );
    }
}

/// Send-direction state.
#[derive(Default)]
pub(crate) struct TxState {
    /// Posted, not yet started.
    pub sq: VecDeque<SendWr>,
    /// Started, not yet completed.
    pub inflight: InFlight,
    /// Next message sequence number to assign.
    pub next_seq: u64,
    /// Do not transmit before this instant (RNR backoff).
    pub backoff_until: Time,
    /// Retransmission timer. Created lazily by the engine on first arm;
    /// the closure is boxed once per QP life and re-armed in place. A
    /// reset wipes this state, which drops (and so cancels) the timer.
    pub retx_timer: Option<xrdma_sim::Timer>,
}

/// What reaches the responder's sequence gate.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Request {
    /// A Send, Write or WriteImm fragment at byte `off` of its message.
    Fragment { off: u64 },
    /// A READ or atomic request: executed on arrival.
    Execute,
}

/// How the sequence gate sorts an arriving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Accepted before: a message is re-ACKed, a READ runs again (reads
    /// are idempotent), an atomic is answered from the store.
    Duplicate,
    /// The expected request, or the next fragment of the message under
    /// reassembly.
    InOrder,
    /// A gap opened, between requests or inside the expected message:
    /// send one SeqError NAK for this expected seq.
    Nak(u64),
    /// Dropped unanswered: a gap inside a NAKed episode, or a fragment
    /// behind the reassembly.
    Discard,
}

/// A READ response or an atomic answer waiting to go out.
#[derive(Debug)]
enum RespJob {
    Read {
        req_seq: u64,
        len: u64,
        sent_off: u64,
        /// The bytes when the MR is backed, captured at accept time so a
        /// later overwrite doesn't change what this read returns; response
        /// fragments slice this shared buffer without copying.
        data: Option<bytes::Bytes>,
    },
    Atomic {
        req_seq: u64,
        old_value: u64,
    },
}

/// The expected message, partly reassembled.
#[derive(Debug)]
struct RxMsg {
    received: u64,
    /// The receive WR it consumed (Send/WriteImm).
    rqe: Option<RecvWr>,
}

/// The RC responder: the sequence gate over the request stream, the
/// message under reassembly, the atomic replay store and the queue of
/// READ and atomic responses to stream back.
///
/// The gate accepts the request stream strictly in sequence. A request
/// below the expected seq is a duplicate; one past it is a gap, and so is
/// a fragment of the expected message past its reassembly. A gap is
/// answered with one SeqError NAK per episode: the first NAKs, later
/// ones are discarded until the expected request arrives again and ends
/// the episode. An RNR NAK opens an episode the same way. A message's
/// reassembly outlives an episode: its replayed first fragment restarts
/// it in the receive WR it already holds.
#[derive(Default)]
pub(crate) struct Responder {
    /// The next request-stream seq to accept.
    expected: u64,
    /// The message at `expected` under reassembly.
    cur: Option<RxMsg>,
    /// A SeqError or RNR NAK for `expected` is out: gaps stay quiet.
    episode: bool,
    /// `(seq, old value)` of the last [`MAX_INFLIGHT_MSGS`] atomics
    /// executed: a replayed request is answered from here, since running
    /// it again would apply it twice.
    atomics: VecDeque<(u64, u64)>,
    /// Responses to stream, in the order their requests were accepted.
    resp: VecDeque<RespJob>,
}

impl Responder {
    /// The sequence gate: sort one arriving request. A READ or atomic is
    /// accepted on arrival, a message when its last fragment lands
    /// ([`Responder::deliver`]); a fragment past a message's first is in
    /// order only while it continues the reassembly, a gap past it and a
    /// duplicate behind it.
    pub(crate) fn gate(&mut self, seq: u64, req: Request) -> Arrival {
        let arrival = if seq < self.expected {
            Arrival::Duplicate
        } else if seq > self.expected {
            if self.episode {
                Arrival::Discard
            } else {
                self.episode = true;
                Arrival::Nak(self.expected)
            }
        } else {
            match req {
                Request::Fragment { off: 0 } => self.episode = false,
                Request::Fragment { off } => {
                    let received = self.cur.as_ref().map_or(0, |c| c.received);
                    if self.episode || off < received {
                        return Arrival::Discard;
                    }
                    if off > received {
                        self.episode = true;
                        return Arrival::Nak(self.expected);
                    }
                }
                Request::Execute => {
                    self.episode = false;
                    self.expected += 1;
                }
            }
            Arrival::InOrder
        };
        self.check();
        arrival
    }

    /// An RNR NAK for the expected message went out: the episode opens.
    pub(crate) fn rnr(&mut self) {
        self.episode = true;
    }

    /// A first fragment of the message already under reassembly (a
    /// duplicate, or the replay after a loss) restarts it in the receive
    /// WR it holds. False when no reassembly is open.
    pub(crate) fn restart(&mut self) -> bool {
        let Some(c) = self.cur.as_mut() else {
            return false;
        };
        c.received = 0;
        true
    }

    /// The expected message's first fragment was accepted, into `rqe`
    /// when it consumes a receive WR.
    pub(crate) fn begin(&mut self, rqe: Option<RecvWr>) {
        self.cur = Some(RxMsg { received: 0, rqe });
    }

    /// The receive WR of the message under reassembly.
    pub(crate) fn rqe(&self) -> Option<&RecvWr> {
        self.cur.as_ref()?.rqe.as_ref()
    }

    /// Placement failed: the message is dropped, and the NAK that reports
    /// it opens an episode, so its later fragments stay quiet.
    pub(crate) fn abort(&mut self) {
        self.cur = None;
        self.episode = true;
    }

    /// `len` more bytes of the message under reassembly landed.
    pub(crate) fn land(&mut self, len: u64) {
        if let Some(c) = self.cur.as_mut() {
            c.received += len;
        }
    }

    /// The message's last fragment landed: the expected seq moves past
    /// it, and the receive WR it consumed comes back for its CQE.
    pub(crate) fn deliver(&mut self) -> Option<RecvWr> {
        let msg = self.cur.take()?;
        self.expected += 1;
        self.check();
        msg.rqe
    }

    /// The last seq a cumulative ACK covers.
    pub(crate) fn acked(&self) -> u64 {
        self.expected.wrapping_sub(1)
    }

    /// Queue the response to the READ `seq`.
    pub(crate) fn read(&mut self, seq: u64, len: u64, data: Option<bytes::Bytes>) {
        self.resp.push_back(RespJob::Read {
            req_seq: seq,
            len,
            sent_off: 0,
            data,
        });
        self.check();
    }

    /// The atomic `seq` ran and found `old`: keep it for a replay and
    /// queue the answer.
    pub(crate) fn executed(&mut self, seq: u64, old: u64) {
        if self.atomics.len() == MAX_INFLIGHT_MSGS {
            self.atomics.pop_front();
        }
        self.atomics.push_back((seq, old));
        self.resp.push_back(RespJob::Atomic {
            req_seq: seq,
            old_value: old,
        });
        self.check();
    }

    /// A replayed atomic: queue the answer its first execution gave. One
    /// older than the store has no requester waiting for it and gets no
    /// answer (returns false).
    pub(crate) fn replay(&mut self, seq: u64) -> bool {
        let Some(&(_, old)) = self.atomics.iter().find(|&&(s, _)| s == seq) else {
            return false;
        };
        self.resp.push_back(RespJob::Atomic {
            req_seq: seq,
            old_value: old,
        });
        true
    }

    /// Does a response wait to go out?
    pub(crate) fn has_work(&self) -> bool {
        !self.resp.is_empty()
    }

    /// The next response segment to `dst_qpn` and its wire payload: an
    /// atomic answer, or one `mtu`-sized fragment of a READ response.
    pub(crate) fn next_segment(&mut self, dst_qpn: Qpn, mtu: u32) -> Option<(Bth, u32)> {
        let seg = match self.resp.front_mut()? {
            &mut RespJob::Atomic { req_seq, old_value } => {
                self.resp.pop_front();
                let bth = Bth::AtomicResp {
                    dst_qpn,
                    msg_seq: req_seq,
                    old_value,
                };
                (bth, 8)
            }
            RespJob::Read {
                req_seq,
                len,
                sent_off,
                data,
            } => {
                let off = *sent_off;
                let frag_len = (*len - off).min(mtu as u64) as u32;
                let end = off + frag_len as u64;
                let last = end >= *len;
                let frag = match data {
                    Some(bytes) => FragData::Bytes(bytes.slice(off as usize..end as usize)),
                    None => FragData::Zero(frag_len),
                };
                let bth = Bth::ReadResp {
                    dst_qpn,
                    msg_seq: *req_seq,
                    frag_off: off,
                    total_len: *len,
                    last,
                    data: frag,
                };
                *sent_off = end;
                if last {
                    self.resp.pop_front();
                }
                (bth, frag_len)
            }
        };
        self.check();
        Some(seg)
    }

    /// `debug_invariants`: every answer kept or queued is for an accepted
    /// request, the store is bounded and in sequence order, and a queued
    /// READ response has bytes left to send.
    fn check(&self) {
        invariant!(
            self.atomics.len() <= MAX_INFLIGHT_MSGS
                && self.atomics.iter().all(|&(s, _)| s < self.expected)
                && self
                    .atomics
                    .iter()
                    .zip(self.atomics.iter().skip(1))
                    .all(|(a, b)| a.0 < b.0),
            "responder atomic store out of order or past seq {}",
            self.expected
        );
        invariant!(
            self.resp.iter().all(|j| match *j {
                RespJob::Read {
                    req_seq,
                    len,
                    sent_off,
                    ..
                } => req_seq < self.expected && sent_off < len.max(1),
                RespJob::Atomic { req_seq, .. } => req_seq < self.expected,
            }),
            "responder queued a response not owed before seq {}",
            self.expected
        );
    }
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
    /// The private receive queue (unused with an SRQ attached): a
    /// channel's slots reposted in the order they were taken stay one or
    /// two runs.
    pub(crate) rq: RefCell<RecvQueue>,
    pub(crate) responder: RefCell<Responder>,
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
            rq: RefCell::new(RecvQueue::default()),
            responder: RefCell::new(Responder::default()),
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
        *self.rq.borrow_mut() = RecvQueue::default();
        *self.responder.borrow_mut() = Responder::default();
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
        let mut rq = self.rq.borrow_mut();
        if rq.len() >= self.caps.max_recv_wr {
            return Err(VerbsError::QueueFull);
        }
        rq.push(wr);
        Ok(())
    }

    /// Take the next receive WR (SRQ-aware).
    pub(crate) fn take_rqe(&self) -> Option<RecvWr> {
        if let Some(srq) = &self.srq {
            srq.pop()
        } else {
            self.rq.borrow_mut().pop()
        }
    }

    /// Current depth of the receive queue (SRQ-aware).
    pub fn recv_queue_len(&self) -> usize {
        if let Some(srq) = &self.srq {
            srq.len()
        } else {
            self.rq.borrow().len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::Payload;

    fn qp() -> Rc<Qp> {
        let cq = CompletionQueue::new(0, 64);
        Qp::new(
            Qpn(1),
            1,
            QpCaps::default(),
            cq.clone(),
            cq,
            None,
            DcqcnRp::new(),
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
                DcqcnRp::new(),
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

    fn key(wr: &RecvWr) -> (u64, u64, u64, u32) {
        (wr.wr_id, wr.addr, wr.len, wr.lkey)
    }

    /// Everything left in `qp`'s receive queue, oldest first: a private
    /// queue the way the engine's error flush drains it, an SRQ by pops.
    fn flush(qp: &Qp) -> Vec<RecvWr> {
        if qp.srq.is_some() {
            return std::iter::from_fn(|| qp.take_rqe()).collect();
        }
        let mut rq = std::mem::take(&mut *qp.rq.borrow_mut());
        std::iter::from_fn(|| rq.pop()).collect()
    }

    /// The run queue against a `VecDeque<RecvWr>`, through a private RQ
    /// and an SRQ: random posts, pops and flushes hand out the same WRs
    /// in the same order, refuse the same posts at depth and report the
    /// same length. A post continues the last WR, reposts a consumed one
    /// (the oldest, as a slot ring does, or any), changes `len` or `lkey`
    /// at the next address, or is unrelated.
    #[test]
    fn recv_queue_matches_a_vecdeque() {
        use xrdma_sim::SimRng;
        for seed in 0..48 {
            let mut rng = SimRng::new(seed);
            let depth = 1 + rng.next_below(24) as usize;
            let cq = CompletionQueue::new(0, 64);
            let caps = QpCaps {
                max_send_wr: 1,
                max_recv_wr: depth,
            };
            let srq = Srq::new(0, depth);
            let private = Qp::new(
                Qpn(1),
                1,
                caps,
                cq.clone(),
                cq.clone(),
                None,
                DcqcnRp::new(),
            );
            let shared = Qp::new(Qpn(2), 1, caps, cq.clone(), cq, Some(srq), DcqcnRp::new());
            for qp in [private, shared] {
                qp.modify_to_init().unwrap();
                let mut model: VecDeque<RecvWr> = VecDeque::new();
                let mut taken: Vec<RecvWr> = Vec::new();
                let mut last = RecvWr::new(0, 0x1000, 64, 1);
                for _ in 0..400 {
                    let next = (last.wr_id + 1, last.addr + last.len);
                    match rng.next_below(10) {
                        0..=5 => {
                            let wr = match rng.next_below(7) {
                                0 | 1 => RecvWr::new(next.0, next.1, last.len, last.lkey),
                                2 if !taken.is_empty() => taken.remove(0),
                                3 if !taken.is_empty() => {
                                    taken.swap_remove(rng.next_below(taken.len() as u64) as usize)
                                }
                                4 => RecvWr::new(next.0, next.1, 1 + last.len % 97, last.lkey),
                                5 => RecvWr::new(next.0, next.1, last.len, last.lkey ^ 2),
                                _ => RecvWr::new(
                                    rng.next_below(1 << 20),
                                    rng.next_below(1 << 30),
                                    rng.next_below(4096),
                                    rng.next_below(4) as u32,
                                ),
                            };
                            let full = model.len() >= depth;
                            let res = qp.post_recv(wr.clone());
                            assert_eq!(full, matches!(res, Err(VerbsError::QueueFull)));
                            if !full {
                                res.unwrap();
                                model.push_back(wr.clone());
                                last = wr;
                            }
                        }
                        6..=8 => {
                            let got = qp.take_rqe();
                            let want = model.pop_front();
                            assert_eq!(got.as_ref().map(key), want.as_ref().map(key));
                            taken.extend(want);
                        }
                        _ => {
                            let got: Vec<_> = flush(&qp).iter().map(key).collect();
                            let want: Vec<_> = model.drain(..).map(|w| key(&w)).collect();
                            assert_eq!(got, want);
                        }
                    }
                    assert_eq!(qp.recv_queue_len(), model.len());
                }
            }
        }
    }

    /// A ring of slots reposted in the order they are taken stays two
    /// runs deep at most; a `len` or `lkey` change, or a gap in address
    /// or id, starts a new run.
    #[test]
    fn recv_queue_stores_runs() {
        assert_eq!(
            std::mem::size_of::<RecvRun>(),
            std::mem::size_of::<RecvWr>()
        );
        let mut q = RecvQueue::default();
        for i in 0..12 {
            q.push(RecvWr::new(i, 0x1000 + 64 * i, 64, 1));
        }
        assert_eq!((q.len(), q.runs_len()), (12, 1));
        for _ in 0..30 {
            let wr = q.pop().unwrap();
            q.push(wr);
            assert!(q.runs_len() <= 2, "{} runs", q.runs_len());
        }
        let mut q = RecvQueue::default();
        q.push(RecvWr::new(0, 0x1000, 64, 1));
        q.push(RecvWr::new(1, 0x1040, 64, 3)); // lkey changes
        q.push(RecvWr::new(2, 0x1080, 32, 3)); // len changes
        q.push(RecvWr::new(3, 0x10c0, 32, 3)); // address skips
        q.push(RecvWr::new(5, 0x10e0, 32, 3)); // id skips
        q.push(RecvWr::new(6, 0x1100, 32, 3)); // continues
        assert_eq!((q.len(), q.runs_len()), (6, 5));
        let lkeys: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|w| w.lkey).collect();
        assert_eq!(lkeys, [1, 3, 3, 3, 3, 3]);
        assert_eq!((q.len(), q.runs_len()), (0, 0));
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
                DcqcnRp::new(),
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

    /// The table alone through a late covering ACK: a Read (seq 0) and a
    /// Write (seq 1) are on the wire, a go-back rewinds over both and
    /// charges the Read, and an ACK for seq 1 arrives before either is
    /// replayed. The Write completes on the ACK; the Read stays for its
    /// response, and nothing is left to replay until the next go-back,
    /// which charges the Read again.
    #[test]
    fn covering_ack_after_a_go_back_completes_the_replayed_write() {
        let mut t = InFlight::default();
        t.start(SendWr::read(1, 0, 0, 8, 0, 0), 0);
        t.sent(Time::ZERO);
        t.start(SendWr::write(2, Payload::Zero(64), 0, 0), 1);
        t.sent(Time::ZERO);
        assert_eq!(t.go_back(0), (2, Some(1)));
        let mut done = Vec::new();
        t.ack(1, |e| done.push(e.wr.wr_id));
        assert_eq!(done, [2], "the ACK completes the Write");
        assert!(!t.has_work() && t.awaiting(), "the Read waits, unreplayed");
        assert_eq!(t.go_back(0), (1, Some(2)), "a timeout replays the Read");
        assert_eq!(t.take(0).map(|e| e.wr.wr_id), Some(1));
    }

    /// Drive `r` as the engine does with one arrival: a single-fragment
    /// Send or Write lands and is delivered, a READ or atomic runs; `T` and
    /// `t` are the first and second fragment of a two-fragment Send. The
    /// first opens (or restarts) the reassembly, the second completes it.
    /// Returns the gate's verdict.
    fn arrive(r: &mut Responder, seq: u64, op: char) -> Arrival {
        let req = match op {
            'S' | 'W' | 'T' => Request::Fragment { off: 0 },
            't' => Request::Fragment { off: 4096 },
            _ => Request::Execute,
        };
        let arrival = r.gate(seq, req);
        match (arrival, op) {
            (Arrival::InOrder, 'S' | 'W') => {
                assert!(!r.restart(), "a single fragment leaves nothing open");
                r.begin((op == 'S').then(|| RecvWr::new(seq, 0, 64, 0)));
                r.land(8);
                assert_eq!(r.deliver().map(|w| w.wr_id), (op == 'S').then_some(seq));
            }
            (Arrival::InOrder, 'T') => {
                if !r.restart() {
                    r.begin(Some(RecvWr::new(seq, 0, 8192, 0)));
                }
                r.land(4096);
            }
            (Arrival::InOrder, 't') => {
                r.land(100);
                assert_eq!(r.deliver().map(|w| w.wr_id), Some(seq));
            }
            (Arrival::InOrder, 'R') => r.read(seq, 8, None),
            // The atomic `seq` finds `seq + 100`, so an answer names its run.
            (Arrival::InOrder, 'A') => r.executed(seq, seq + 100),
            (Arrival::Duplicate, 'A') => assert!(r.replay(seq), "replay of {seq} unanswered"),
            _ => {}
        }
        arrival
    }

    /// Every queued response, in order, as `(seq, old value or READ length)`.
    fn drain(r: &mut Responder) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| r.next_segment(Qpn(2), 4096))
            .map(|(bth, _)| match bth {
                Bth::AtomicResp {
                    msg_seq, old_value, ..
                } => (msg_seq, old_value),
                Bth::ReadResp {
                    msg_seq, total_len, ..
                } => (msg_seq, total_len),
                other => panic!("not a response: {other:?}"),
            })
            .collect()
    }

    /// The gate sorts by the expected seq: below it a duplicate, at it in
    /// order, past it a gap NAKed for the expected seq. A continuation
    /// fragment is in order only at the reassembly's offset: past it is a
    /// gap, behind it a duplicate dropped unanswered.
    #[test]
    fn responder_gate_sorts_duplicates_order_and_gaps() {
        let mut r = Responder::default();
        let frag = |off| Request::Fragment { off };
        assert_eq!(r.gate(0, frag(4096)), Arrival::Nak(0), "first one lost");
        assert_eq!(r.gate(0, frag(0)), Arrival::InOrder);
        r.begin(None);
        r.land(4096);
        assert_eq!(r.gate(0, frag(4096)), Arrival::InOrder);
        r.land(4096);
        assert_eq!(r.gate(0, frag(4096)), Arrival::Discard, "behind");
        assert_eq!(r.gate(0, frag(12_288)), Arrival::Nak(0), "past");
        assert_eq!(r.gate(0, frag(8192)), Arrival::Discard, "in the episode");
        assert_eq!(r.gate(0, frag(0)), Arrival::InOrder, "the replay");
        assert!(r.restart());
        r.land(4096);
        assert_eq!(r.gate(0, frag(4096)), Arrival::InOrder);
        r.land(100);
        assert_eq!(r.deliver().map(|w| w.wr_id), None);
        assert_eq!(r.acked(), 0);
        assert_eq!(r.gate(0, frag(0)), Arrival::Duplicate);
        assert_eq!(r.gate(0, Request::Execute), Arrival::Duplicate);
        assert_eq!(r.gate(2, Request::Execute), Arrival::Nak(1));
        assert_eq!(r.gate(1, Request::Execute), Arrival::InOrder);
        assert_eq!(r.acked(), 1, "a READ is accepted on arrival");
        assert_eq!(r.gate(2, frag(0)), Arrival::InOrder);
        r.begin(None);
        r.abort();
        assert_eq!(r.gate(2, frag(4096)), Arrival::Discard, "placement NAKed");
    }

    /// One SeqError NAK per episode, whatever arrives past the gap: a
    /// Send, a READ or an atomic. The expected request ends the episode,
    /// an atomic as much as a READ or a first fragment, and an RNR NAK
    /// opens one the same way. A half-reassembled message outlives the
    /// episode: its replay restarts it in the receive WR it holds.
    #[test]
    fn responder_naks_a_gap_once_per_episode() {
        let frag = |off| Request::Fragment { off };
        let mut r = Responder::default();
        // A READ (seq 1) overtakes the last fragment of message 0.
        assert_eq!(r.gate(0, frag(0)), Arrival::InOrder);
        assert!(!r.restart());
        r.begin(Some(RecvWr::new(7, 0, 8192, 0)));
        r.land(4096);
        assert_eq!(r.gate(1, Request::Execute), Arrival::Nak(0));
        for seq in [2, 1, 3] {
            assert_eq!(r.gate(seq, Request::Execute), Arrival::Discard);
            assert_eq!(r.gate(seq, frag(0)), Arrival::Discard);
        }
        assert_eq!(
            r.gate(0, frag(4096)),
            Arrival::Discard,
            "held by the episode"
        );
        assert_eq!(r.gate(0, frag(0)), Arrival::InOrder, "the replay");
        assert!(r.restart(), "restarts in the receive WR it holds");
        r.land(4096);
        assert_eq!(r.gate(0, frag(4096)), Arrival::InOrder);
        r.land(100);
        assert_eq!(r.deliver().map(|w| w.wr_id), Some(7));
        assert_eq!(
            r.gate(2, Request::Execute),
            Arrival::Nak(1),
            "a new episode"
        );
        assert_eq!(
            r.gate(1, Request::Execute),
            Arrival::InOrder,
            "an atomic ends it"
        );
        assert_eq!(r.gate(3, Request::Execute), Arrival::Nak(2));
        assert_eq!(r.gate(2, frag(0)), Arrival::InOrder);
        r.rnr();
        assert_eq!(r.gate(3, Request::Execute), Arrival::Discard, "RNR episode");
        assert_eq!(r.gate(2, frag(0)), Arrival::InOrder);
        assert_eq!(r.gate(4, Request::Execute), Arrival::Nak(2));
    }

    /// A replayed atomic is answered from the store with its first
    /// result; one older than the store's last `MAX_INFLIGHT_MSGS` gets no
    /// answer.
    #[test]
    fn responder_answers_a_replayed_atomic_from_its_store() {
        let mut r = Responder::default();
        let n = MAX_INFLIGHT_MSGS as u64 + 2;
        for seq in 0..n {
            assert_eq!(arrive(&mut r, seq, 'A'), Arrival::InOrder);
        }
        assert_eq!(drain(&mut r).len(), n as usize);
        assert!(!r.replay(0) && !r.replay(1), "older than the store");
        assert!(r.replay(2) && r.replay(n - 1));
        assert_eq!(drain(&mut r), [(2, 102), (n - 1, n + 99)]);
        assert!(!r.has_work());
    }

    /// Responses leave in acceptance order; a READ response goes out in
    /// `mtu`-sized fragments slicing the captured bytes.
    #[test]
    fn responder_streams_responses_in_order() {
        let mut r = Responder::default();
        assert_eq!(r.gate(0, Request::Execute), Arrival::InOrder);
        r.read(0, 5000, Some(bytes::Bytes::from(vec![7u8; 5000])));
        assert_eq!(arrive(&mut r, 1, 'A'), Arrival::InOrder);
        let mut frags = Vec::new();
        while let Some((bth, len)) = r.next_segment(Qpn(2), 4096) {
            frags.push(match bth {
                Bth::ReadResp {
                    frag_off,
                    last,
                    data,
                    ..
                } => (frag_off, len, last, data.bytes().map(|b| b.len())),
                Bth::AtomicResp { old_value, .. } => (old_value, len, true, None),
                other => panic!("not a response: {other:?}"),
            });
        }
        assert_eq!(
            frags,
            [
                (0, 4096, false, Some(4096)),
                (4096, 904, true, Some(904)),
                (101, 8, true, None)
            ]
        );
    }

    /// Small-scope checker: every arrival sequence of length ≤ 8 over
    /// seqs 0..4, for six assignments of Send, Write, READ and FetchAdd to
    /// the seqs, and of length ≤ 7 for two assignments with a two-fragment
    /// Send, whose second fragment is a fifth symbol. Each seq is accepted
    /// (delivered or executed) at most once and in order; a gap, between
    /// requests or inside the two-fragment Send, NAKs if and only if
    /// nothing was NAKed since the last in-order arrival, and names the
    /// expected seq; a duplicate atomic is answered with its first result.
    #[test]
    fn responder_small_scope_checker() {
        let programs = [
            ("SWRA", 8),
            ("WRAS", 8),
            ("RASW", 8),
            ("ASWR", 8),
            ("RRRR", 8),
            ("AAAA", 8),
            ("TSRA", 7),
            ("RATW", 7),
        ];
        let mut runs = 0u64;
        for (program, max_len) in programs {
            let mut symbols: Vec<(u64, char)> = program
                .chars()
                .zip(0..)
                .map(|(op, seq)| (seq, op))
                .collect();
            if let Some(seq) = program.find('T') {
                symbols.push((seq as u64, 't'));
            }
            let n = symbols.len() as u64;
            for len in 1..=max_len {
                for code in 0..n.pow(len) {
                    let arrivals: Vec<(u64, char)> = (0..len)
                        .map(|i| symbols[(code / n.pow(i) % n) as usize])
                        .collect();
                    let mut r = Responder::default();
                    let mut accepted = Vec::new();
                    let (mut naked, mut open) = (false, false);
                    for &(seq, op) in &arrivals {
                        let expected = accepted.len() as u64;
                        let arrival = arrive(&mut r, seq, op);
                        let want = if seq < expected {
                            Arrival::Duplicate
                        } else if seq > expected || (op == 't' && !open) {
                            if naked {
                                Arrival::Discard
                            } else {
                                Arrival::Nak(expected)
                            }
                        } else if op == 't' && naked {
                            Arrival::Discard
                        } else {
                            Arrival::InOrder
                        };
                        assert_eq!(
                            arrival, want,
                            "{program} arrivals {arrivals:?} at {seq}{op}"
                        );
                        match arrival {
                            Arrival::InOrder if op == 'T' => {
                                open = true;
                                naked = false;
                            }
                            Arrival::InOrder => {
                                accepted.push(seq);
                                (naked, open) = (false, false);
                            }
                            Arrival::Nak(_) => naked = true,
                            _ => {}
                        }
                    }
                    assert!(accepted.iter().copied().eq(0..accepted.len() as u64));
                    for (seq, v) in drain(&mut r) {
                        let want = if program.as_bytes()[seq as usize] == b'A' {
                            seq + 100
                        } else {
                            8
                        };
                        assert!(seq < accepted.len() as u64 && v == want, "{arrivals:?}");
                    }
                    runs += 1;
                }
            }
        }
        assert_eq!(runs, 6 * (4u64.pow(9) - 4) / 3 + 2 * (5u64.pow(8) - 5) / 4);
    }

    #[test]
    #[should_panic(expected = "responder queued a response not owed")]
    fn invariant_rejects_a_response_never_requested() {
        let mut r = Responder::default();
        r.read(3, 8, None);
    }

    #[test]
    #[should_panic(expected = "in-flight window count")]
    fn invariant_rejects_a_miscounted_window() {
        let mut t = InFlight::default();
        t.start(SendWr::write(1, Payload::Zero(64), 0, 0), 0);
        t.window += 1;
        t.sent(Time::ZERO);
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
