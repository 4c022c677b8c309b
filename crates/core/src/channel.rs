//! `xrdma_channel` — a connection between two contexts, carrying the mixed
//! message model (§IV-C), the seq-ack window (§V-B), keepalive (§V-A) and
//! per-connection statistics (XR-Stat, §VI-B).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use bytes::{Bytes, BytesMut};

use xrdma_fabric::NodeId;
use xrdma_rnic::verbs::Payload;
use xrdma_rnic::{Qp, RecvWr, Rnic, SendOp, SendWr, VerbsError};
use xrdma_sim::inthash::IntMap;
use xrdma_sim::stats::{HistSummary, Histogram};
use xrdma_sim::{invariant, Dur, Time};
use xrdma_telemetry::{span_end, span_mark, span_open, tele, SpanToken};

use crate::config::{MsgMode, CPU_TRACE, FRAG_BYTES, MAX_MSG_SIZE};
use crate::context::XrdmaContext;
use crate::error::XrdmaError;
use crate::memcache::{McBuf, MemCache};
use crate::proto::{Header, LargeDesc, MsgKind, MuxDesc, TraceHdr};
use crate::seqack::{RxAccept, RxWindow, SeqRing, TxWindow};
use crate::stats::ChannelStats;

// wr_id tag layout: tag in the top byte, payload bits below.
pub(crate) const TAG_SHIFT: u64 = 56;
pub(crate) const TAG_EAGER: u64 = 1;
pub(crate) const TAG_CTRL: u64 = 2;
pub(crate) const TAG_PROBE: u64 = 3;
pub(crate) const TAG_READ: u64 = 4;

pub(crate) fn wr_tag(wr_id: u64) -> u64 {
    wr_id >> TAG_SHIFT
}

pub(crate) fn wr_eager(seq: u32) -> u64 {
    (TAG_EAGER << TAG_SHIFT) | seq as u64
}

pub(crate) fn wr_ctrl() -> u64 {
    TAG_CTRL << TAG_SHIFT
}

pub(crate) fn wr_probe() -> u64 {
    TAG_PROBE << TAG_SHIFT
}

pub(crate) fn wr_read(seq: u32, frag: u32) -> u64 {
    (TAG_READ << TAG_SHIFT) | ((frag as u64) << 32) | seq as u64
}

pub(crate) fn wr_read_seq(wr_id: u64) -> u32 {
    wr_id as u32
}

/// Why a channel closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// Local `close()` call.
    Local,
    /// Peer sent a graceful Close.
    Remote,
    /// KeepAlive (or a data operation) found the peer dead (§V-A).
    PeerDead,
}

impl CloseReason {
    /// Stable lowercase name for telemetry; `peer-dead` marks the abnormal
    /// close that triggers a flight-recorder dump.
    pub fn name(self) -> &'static str {
        match self {
            CloseReason::Local => "local",
            CloseReason::Remote => "remote",
            CloseReason::PeerDead => "peer-dead",
        }
    }
}

/// A message as delivered to the application.
pub struct XrdmaMsg {
    pub kind: MsgKind,
    pub rpc_id: u32,
    /// Body length in bytes.
    pub len: u64,
    /// Tracing header, when the sender traced this message (req-rsp mode).
    pub trace: Option<TraceHdr>,
    /// Multiplexing descriptor, when the sender routed this message
    /// through a [`crate::mux::ChannelMux`] logical channel.
    pub mux: Option<MuxDesc>,
    source: MsgSource,
}

enum MsgSource {
    Empty,
    /// Body lives in registered memory (receive buffer or memcache).
    Region {
        rnic: Rc<Rnic>,
        lkey: u32,
        addr: u64,
    },
}

impl XrdmaMsg {
    /// True when this "response" is actually a failure notification: the
    /// channel died (peer crash, keepalive, local close) while the RPC was
    /// outstanding. Such messages have `kind == MsgKind::Close`, zero
    /// length and an empty body.
    pub fn is_error(&self) -> bool {
        self.kind == MsgKind::Close
    }

    /// A failure notification (`is_error() == true`): delivered to RPC
    /// waiters when the channel dies — or, on the mux path, when the slot
    /// never established at all.
    pub(crate) fn error_msg() -> XrdmaMsg {
        XrdmaMsg {
            kind: MsgKind::Close,
            rpc_id: 0,
            len: 0,
            trace: None,
            mux: None,
            source: MsgSource::Empty,
        }
    }

    /// Materialize the body bytes. Zero-filled for size-only payloads.
    /// Valid only during the delivery handler (zero-copy semantics: the
    /// underlying buffer is recycled afterwards) — copy if you keep it.
    pub fn body(&self) -> Bytes {
        match &self.source {
            MsgSource::Empty => Bytes::new(),
            MsgSource::Region { rnic, lkey, addr } => match rnic.mem().by_lkey(*lkey) {
                // One gather copy into a shared buffer; repeated body()
                // calls and downstream slices stay zero-copy.
                Some(mr) => mr
                    .read_bytes(*addr, self.len)
                    .unwrap_or_else(|_| Bytes::new()),
                None => Bytes::new(),
            },
        }
    }
}

/// Token for answering a request after its handler returned.
#[derive(Clone, Copy, Debug)]
pub struct ReplyToken {
    pub rpc_id: u32,
    pub traced: Option<TraceHdr>,
    /// Receiver-side arrival timestamp (local clock), shipped back to the
    /// requester for the T2−T1−Toff decomposition (§VI-A method I).
    pub t2_ns: u64,
}

/// A queued-but-not-yet-sent message (window closed).
struct PendingSend {
    kind: MsgKind,
    body: BodySpec,
    rpc_id: u32,
    trace: Option<TraceHdr>,
    mux: Option<MuxDesc>,
}

/// How the caller described the body.
pub(crate) enum BodySpec {
    /// Real bytes.
    Data(Bytes),
    /// Size-only (performance experiments).
    Size(u64),
}

impl BodySpec {
    fn len(&self) -> u64 {
        match self {
            BodySpec::Data(b) => b.len() as u64,
            BodySpec::Size(n) => *n,
        }
    }
}

/// A received message not yet deliverable (in-order constraint) or being
/// fetched (large path).
struct InMsg {
    hdr: Header,
    /// Body buffer: the small path's staging copy or the large path's
    /// landing buffer (none for an empty body).
    buf: Option<McBuf>,
    /// Receiver-side arrival time (for ReplyToken/t2).
    t2: Time,
    /// Causal span carried over from the sender's CQE; closed after the
    /// application handler runs.
    span: SpanToken,
    /// RDMA Read fragments of the large fetch still outstanding
    /// (read-replace-write, §IV-C); zero on the small path.
    frags_left: u32,
}

/// The channel.
pub struct XrdmaChannel {
    pub(crate) ctx: Weak<XrdmaContext>,
    pub qp: Rc<Qp>,
    pub peer: NodeId,
    pub(crate) tx: RefCell<TxWindow>,
    pub(crate) rx: RefCell<RxWindow>,
    /// Large-path payload buffers of sent messages awaiting the peer's
    /// window ack; the ring's edge is the tx ack edge.
    outgoing: RefCell<SeqRing<McBuf>>,
    /// Sends blocked on the window.
    pending: RefCell<VecDeque<PendingSend>>,
    /// Received messages awaiting in-order delivery / large fetch; the
    /// ring's edge is the next seq to deliver.
    inbox: RefCell<SeqRing<InMsg>>,
    /// Pre-posted receive slots, indexed by wr_id (empty in SRQ mode).
    recv_slots: RefCell<RecvSlots>,
    rpc_waiters: RefCell<IntMap<u32, RpcWaiter>>,
    next_rpc: Cell<u32>,
    on_request: RefCell<Option<Box<dyn Fn(&Rc<XrdmaChannel>, XrdmaMsg, ReplyToken)>>>,
    on_close: RefCell<Option<Box<dyn Fn(CloseReason)>>>,
    pub(crate) stats: RefCell<ChannelStats>,
    pub(crate) last_rx: Cell<Time>,
    pub(crate) last_tx: Cell<Time>,
    /// Instant the window became stalled with queued work (NOP detection).
    pub(crate) stalled_since: Cell<Option<Time>>,
    /// Outstanding control messages (bounded so controls can't exhaust the
    /// peer's receive slots).
    ctrl_outstanding: Cell<u32>,
    pub(crate) closed: Cell<bool>,
    /// Probe in flight (avoid stacking probes).
    probe_outstanding: Cell<bool>,
    /// Last probe emission (probes pace at the keepalive interval).
    pub(crate) last_probe: Cell<Time>,
    /// Flow-control slots this channel holds (data WRs posted, CQE not yet
    /// seen). Released to the context gate on teardown — otherwise WRs
    /// wiped by a QP reset would jam the gate forever.
    pub(crate) flow_slots: Cell<u32>,
    /// Data WRs of this channel sitting between seq assignment and the
    /// actual post: parked in the context flow queue, or granted a slot
    /// but not yet flushed. While nonzero, fresh sends must join the flow
    /// queue behind them — overtaking through the doorbell batch would
    /// put middleware seqs on the wire out of order, and the receiver
    /// window drops reordered seqs as duplicates.
    pub(crate) flow_waiting: Cell<u32>,
    /// Per-poll CQE batch sizes observed for this channel's QP (the
    /// shared-CQ fast path's batching factor; xr-stat's CQ-BATCH column).
    pub(crate) cqe_batch: RefCell<Histogram>,
    /// One-shot callback fired when the channel has no in-flight work
    /// (eviction drains through this before recycling the QP).
    drain_waiter: RefCell<Option<Box<dyn FnOnce(&Rc<XrdmaChannel>)>>>,
}

struct RpcWaiter {
    cb: Box<dyn FnOnce(&Rc<XrdmaChannel>, XrdmaMsg)>,
    sent_at: Time,
    trace_id: Option<u64>,
    t1_ns: u64,
}

/// Extra receive slots beyond the window depth, reserved for control
/// messages (ACK/NOP/Close) so they can never cause RNR.
pub(crate) const CTRL_SLACK: u32 = 8;
const MAX_CTRL_OUTSTANDING: u32 = 4;

/// Pre-posted receive slots by wr_id: a channel's own (no SRQ) or a
/// context's shared pool (SRQ). Slots are carved in order from memcache
/// arenas, so consecutive ids almost always sit back to back in one MR;
/// the table stores one `(first id, buffer)` per such run instead of one
/// 24 B [`McBuf`] per slot. [`RecvSlots::push`] checks contiguity and
/// starts a new run wherever an allocation does not extend the last one,
/// so [`RecvSlots::get`] returns exactly the buffer pushed under that id
/// whatever the memcache hands out.
#[derive(Default)]
pub(crate) struct RecvSlots {
    /// Ascending by first id; slot `first + k` of a run is the run's
    /// buffer moved up by `k` buffer lengths.
    runs: Vec<(u32, McBuf)>,
    len: u32,
}

impl RecvSlots {
    /// Carve `n` slots of `slot_len` bytes from `mc`, posting each through
    /// `post` as it is carved.
    pub(crate) fn prepost(
        mc: &MemCache,
        n: u32,
        slot_len: u64,
        mut post: impl FnMut(RecvWr) -> Result<(), VerbsError>,
    ) -> RecvSlots {
        let mut slots = RecvSlots::default();
        for _ in 0..n {
            let buf = mc
                .alloc(slot_len)
                .expect("memcache must cover the receive slots");
            let id = slots.push(buf);
            post(recv_wr(id, &buf)).expect("receive queue sized for its slots");
        }
        slots
    }

    /// Append `buf` as the next slot id, which is returned.
    fn push(&mut self, buf: McBuf) -> u32 {
        let id = self.len;
        let extends = self.runs.last().is_some_and(|&(first, base)| {
            (base.len, base.lkey, base.rkey) == (buf.len, buf.lkey, buf.rkey)
                && base.addr + u64::from(id - first) * base.len == buf.addr
        });
        if !extends {
            self.runs.push((id, buf));
        }
        self.len += 1;
        id
    }

    /// The buffer of slot `id`.
    pub(crate) fn get(&self, id: u32) -> Option<McBuf> {
        if id >= self.len {
            return None;
        }
        // Run 0 starts at id 0, so at least one run qualifies.
        let run = self.runs.partition_point(|&(first, _)| first <= id) - 1;
        let (first, base) = self.runs[run];
        Some(McBuf {
            addr: base.addr + u64::from(id - first) * base.len,
            ..base
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Stored runs: one per contiguous stretch of slots.
    #[cfg(test)]
    pub(crate) fn runs_len(&self) -> usize {
        self.runs.len()
    }

    /// Every slot's buffer, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = McBuf> + '_ {
        (0..self.len).filter_map(|id| self.get(id))
    }
}

/// The receive WR that arms slot `id`.
pub(crate) fn recv_wr(id: u32, buf: &McBuf) -> RecvWr {
    RecvWr::new(id as u64, buf.addr, buf.len, buf.lkey)
}

/// Check the result of re-arming a consumed receive slot. A post to a
/// dead QP fails legitimately and is ignored; a full queue means some
/// slot was posted twice, which would otherwise vanish silently.
pub(crate) fn check_repost(res: Result<(), VerbsError>, id: u32) {
    invariant!(
        !matches!(res, Err(VerbsError::QueueFull)),
        "receive slot {id} reposted into a full queue: a slot was posted twice"
    );
}

impl XrdmaChannel {
    pub(crate) fn new(ctx: &Rc<XrdmaContext>, qp: Rc<Qp>, peer: NodeId) -> Rc<XrdmaChannel> {
        let depth = ctx.config().inflight_depth;
        let now = ctx.world().now();
        let ch = Rc::new(XrdmaChannel {
            ctx: Rc::downgrade(ctx),
            qp,
            peer,
            tx: RefCell::new(TxWindow::new(depth)),
            rx: RefCell::new(RxWindow::new(depth)),
            outgoing: RefCell::new(SeqRing::new(depth)),
            pending: RefCell::new(VecDeque::new()),
            inbox: RefCell::new(SeqRing::new(depth)),
            recv_slots: RefCell::new(RecvSlots::default()),
            rpc_waiters: RefCell::new(IntMap::default()),
            next_rpc: Cell::new(1),
            on_request: RefCell::new(None),
            on_close: RefCell::new(None),
            stats: RefCell::new(ChannelStats::default()),
            last_rx: Cell::new(now),
            last_tx: Cell::new(now),
            stalled_since: Cell::new(None),
            ctrl_outstanding: Cell::new(0),
            closed: Cell::new(false),
            probe_outstanding: Cell::new(false),
            last_probe: Cell::new(now),
            flow_slots: Cell::new(0),
            flow_waiting: Cell::new(0),
            cqe_batch: RefCell::new(Histogram::new()),
            drain_waiter: RefCell::new(None),
        });
        // With a shared receive queue the context owns one slot pool for
        // the whole QP pool (receive memory scales with the pool, not the
        // channel count); without one, every channel preposts its own.
        if !ctx.has_srq() {
            let slots = RecvSlots::prepost(
                ctx.memcache(),
                depth + CTRL_SLACK,
                Self::recv_slot_len(ctx),
                |wr| ch.qp.post_recv(wr),
            );
            *ch.recv_slots.borrow_mut() = slots;
        }
        // Registration cost of the receive-slot arenas is paid here, at
        // channel setup — not lazily on the first send.
        ctx.thread().charge(ctx.memcache().take_reg_cost());
        ch
    }

    pub(crate) fn recv_slot_len(ctx: &Rc<XrdmaContext>) -> u64 {
        // Largest eager message: full header + small body. Bounded by the
        // maximum message size so an "everything eager" configuration
        // cannot demand absurd slots.
        ctx.config().small_msg_size.min(MAX_MSG_SIZE) + 64
    }

    /// Register the inbound request/one-way handler.
    pub fn set_on_request(&self, f: impl Fn(&Rc<XrdmaChannel>, XrdmaMsg, ReplyToken) + 'static) {
        // xrdma-lint: allow(hot-path-alloc) -- one-time handler install at channel setup
        *self.on_request.borrow_mut() = Some(Box::new(f));
    }

    /// Register a close notification.
    pub fn set_on_close(&self, f: impl Fn(CloseReason) + 'static) {
        // xrdma-lint: allow(hot-path-alloc) -- one-time handler install at channel setup
        *self.on_close.borrow_mut() = Some(Box::new(f));
    }

    /// Per-connection statistics (the XR-Stat row).
    pub fn stats(&self) -> ChannelStats {
        *self.stats.borrow()
    }

    /// CQE batch sizes this channel's QP contributed per `poll_cq` drain
    /// (None until the first completion). XR-Stat's CQ-BATCH columns.
    pub fn cqe_batch_summary(&self) -> Option<HistSummary> {
        let h = self.cqe_batch.borrow();
        if h.count() > 0 {
            Some(h.summary())
        } else {
            None
        }
    }

    /// Final seq-ack machine state `(tx_in_flight, rx_wta, rx_rta,
    /// rx_unsent_acks)` — the differential batching test asserts this is
    /// identical with coalescing on and off.
    pub fn seqack_state(&self) -> (u32, u32, u32, u32) {
        let tx = self.tx.borrow();
        let rx = self.rx.borrow();
        (tx.in_flight(), rx.wta(), rx.rta(), rx.unsent_acks())
    }

    pub fn is_closed(&self) -> bool {
        self.closed.get()
    }

    /// The owning context, if still alive (analysis tools use this to read
    /// clocks and stats through a channel handle).
    pub fn context(&self) -> Option<Rc<XrdmaContext>> {
        self.ctx.upgrade()
    }

    fn ctx(&self) -> Result<Rc<XrdmaContext>, XrdmaError> {
        self.ctx.upgrade().ok_or(XrdmaError::ChannelClosed)
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Fire-and-forget message of real bytes.
    pub fn send_oneway(self: &Rc<Self>, body: Bytes) -> Result<(), XrdmaError> {
        self.enqueue_send(MsgKind::OneWay, BodySpec::Data(body), 0, None, None)
    }

    /// Fire-and-forget size-only message (performance experiments).
    pub fn send_oneway_size(self: &Rc<Self>, len: u64) -> Result<(), XrdmaError> {
        self.enqueue_send(MsgKind::OneWay, BodySpec::Size(len), 0, None, None)
    }

    /// Fire-and-forget message on behalf of a logical mux channel: the
    /// header carries `desc` so the receiving mux can route it.
    pub(crate) fn send_oneway_mux(
        self: &Rc<Self>,
        desc: MuxDesc,
        body: BodySpec,
    ) -> Result<(), XrdmaError> {
        self.enqueue_send(MsgKind::OneWay, body, 0, None, Some(desc))
    }

    /// RPC request on behalf of a logical mux channel.
    pub(crate) fn send_request_mux(
        self: &Rc<Self>,
        desc: MuxDesc,
        body: BodySpec,
        on_response: Box<dyn FnOnce(&Rc<XrdmaChannel>, XrdmaMsg)>,
    ) -> Result<u32, XrdmaError> {
        self.request_inner(body, on_response, Some(desc))
    }

    /// RPC request with real bytes; `on_response` fires with the reply.
    pub fn send_request(
        self: &Rc<Self>,
        body: Bytes,
        on_response: impl FnOnce(&Rc<XrdmaChannel>, XrdmaMsg) + 'static,
    ) -> Result<u32, XrdmaError> {
        // xrdma-lint: allow(hot-path-alloc) -- per-RPC callback storage is the API contract, not payload copying
        self.request_inner(BodySpec::Data(body), Box::new(on_response), None)
    }

    /// RPC request of a given size (size-only payload).
    pub fn send_request_size(
        self: &Rc<Self>,
        len: u64,
        on_response: impl FnOnce(&Rc<XrdmaChannel>, XrdmaMsg) + 'static,
    ) -> Result<u32, XrdmaError> {
        // xrdma-lint: allow(hot-path-alloc) -- per-RPC callback storage is the API contract, not payload copying
        self.request_inner(BodySpec::Size(len), Box::new(on_response), None)
    }

    fn request_inner(
        self: &Rc<Self>,
        body: BodySpec,
        cb: Box<dyn FnOnce(&Rc<XrdmaChannel>, XrdmaMsg)>,
        mux: Option<MuxDesc>,
    ) -> Result<u32, XrdmaError> {
        let ctx = self.ctx()?;
        let rpc_id = self.next_rpc.get();
        self.next_rpc.set(rpc_id.wrapping_add(1).max(1));
        let trace = self.maybe_trace(&ctx);
        self.rpc_waiters.borrow_mut().insert(
            rpc_id,
            RpcWaiter {
                cb,
                sent_at: ctx.world().now(),
                trace_id: trace.map(|t| t.trace_id),
                t1_ns: trace.map(|t| t.t1_ns).unwrap_or(0),
            },
        );
        self.stats.borrow_mut().rpcs_outstanding += 1;
        self.enqueue_send(MsgKind::Request, body, rpc_id, trace, mux)?;
        Ok(rpc_id)
    }

    /// Answer a request.
    pub fn respond(self: &Rc<Self>, token: ReplyToken, body: Bytes) -> Result<(), XrdmaError> {
        self.respond_with(token, BodySpec::Data(body))
    }

    /// Answer a request with a size-only payload.
    pub fn respond_size(self: &Rc<Self>, token: ReplyToken, len: u64) -> Result<(), XrdmaError> {
        self.respond_with(token, BodySpec::Size(len))
    }

    fn respond_with(self: &Rc<Self>, token: ReplyToken, body: BodySpec) -> Result<(), XrdmaError> {
        let trace = token.traced.map(|t| TraceHdr {
            // Ship the receiver-side arrival time back for decomposition.
            t1_ns: token.t2_ns,
            trace_id: t.trace_id,
        });
        self.enqueue_send(MsgKind::Response, body, token.rpc_id, trace, None)
    }

    fn maybe_trace(&self, ctx: &Rc<XrdmaContext>) -> Option<TraceHdr> {
        let cfg = ctx.config();
        if cfg.msg_mode != MsgMode::ReqRsp {
            return None;
        }
        let mask = cfg.trace_sample_mask;
        if mask == u32::MAX {
            return None;
        }
        let seq = self.tx.borrow().in_flight(); // cheap sampling source
        let stats = self.stats.borrow();
        let sample = (stats.msgs_sent as u32).wrapping_add(seq);
        drop(stats);
        if sample & mask != 0 {
            return None;
        }
        Some(TraceHdr {
            t1_ns: ctx.local_clock_ns(),
            trace_id: ctx.next_trace_id(),
        })
    }

    /// Core send path: window-gate, then eager or rendezvous.
    pub(crate) fn enqueue_send(
        self: &Rc<Self>,
        kind: MsgKind,
        body: BodySpec,
        rpc_id: u32,
        trace: Option<TraceHdr>,
        mux: Option<MuxDesc>,
    ) -> Result<(), XrdmaError> {
        if self.closed.get() {
            return Err(XrdmaError::ChannelClosed);
        }
        let ctx = self.ctx()?;
        if body.len() > MAX_MSG_SIZE {
            return Err(XrdmaError::TooLarge(body.len()));
        }
        if ctx.flow_saturated() {
            // §V-C: the outstanding-WR queue buffers excess requests up to
            // a hard cap; beyond it the caller must back off.
            return Err(XrdmaError::Backpressure);
        }
        // CPU cost of the send call (§VII-A overhead calibration).
        let mut cpu = ctx.config().cpu_send;
        if trace.is_some() {
            cpu += CPU_TRACE;
        }
        ctx.thread().charge(cpu);

        if !self.tx.borrow().can_send() {
            self.stats.borrow_mut().window_stalls += 1;
            if self.stalled_since.get().is_none() {
                self.stalled_since.set(Some(ctx.world().now()));
            }
            self.pending.borrow_mut().push_back(PendingSend {
                kind,
                body,
                rpc_id,
                trace,
                mux,
            });
            tele!(WindowStall {
                node: ctx.node().0,
                qpn: self.qp.qpn.0,
                queued: self.pending.borrow().len() as u64,
            });
            return Ok(());
        }
        self.transmit(&ctx, kind, body, rpc_id, trace, mux)
    }

    /// Window slot available: put the message on the wire.
    fn transmit(
        self: &Rc<Self>,
        ctx: &Rc<XrdmaContext>,
        kind: MsgKind,
        body: BodySpec,
        rpc_id: u32,
        trace: Option<TraceHdr>,
        mux: Option<MuxDesc>,
    ) -> Result<(), XrdmaError> {
        let seq = self.tx.borrow_mut().next_seq();
        let ack = self.rx.borrow_mut().take_ack();
        let len = body.len();
        let small = ctx.config().is_small(len);
        let now = ctx.world().now();
        // Root of the causal span (DESIGN.md §8): opened when the message
        // enters the middleware TX path, in the `submit` stage until the
        // doorbell actually rings. `NONE` with telemetry off or no hub.
        let span = span_open!(ctx.node().0, self.qp.qpn.0, seq, len);
        span_mark!(span, Submit);

        let mut hdr = Header::new(kind, seq, ack, rpc_id, len);
        hdr.trace = trace;
        hdr.mux = mux;

        let mut pinned: Option<McBuf> = None;
        if !small {
            // Rendezvous: stage the payload in the memory cache and ship a
            // descriptor; the receiver fetches it with RDMA Read (§IV-C
            // "Read Replace Write").
            let buf = ctx.memcache().alloc(len)?;
            if let BodySpec::Data(data) = &body {
                ctx.memcache().write(&buf, 0, data)?;
            }
            hdr.large = Some(LargeDesc {
                addr: buf.addr,
                rkey: buf.rkey,
            });
            pinned = Some(buf);
        }
        ctx.thread().charge(ctx.memcache().take_reg_cost());

        // Eager bodies ride behind the header (size-only ones as padding);
        // a rendezvous message is the header alone.
        let (head, pad) = match &body {
            BodySpec::Data(data) if small => {
                let mut b = BytesMut::from(hdr.encode().as_ref());
                b.extend_from_slice(data);
                (b.freeze(), 0)
            }
            BodySpec::Size(n) if small => (hdr.encode(), *n),
            _ => (hdr.encode(), 0),
        };

        {
            let mut st = self.stats.borrow_mut();
            st.msgs_sent += 1;
            st.bytes_sent += len;
            if small {
                st.small_msgs += 1;
            } else {
                st.large_msgs += 1;
            }
        }
        if let Some(buf) = pinned {
            self.outgoing.borrow_mut().insert(seq, buf);
        }
        self.last_tx.set(now);

        let wr = SendWr {
            wr_id: wr_eager(seq),
            op: SendOp::Send,
            payload: Payload::Padded {
                total: head.len() as u64 + pad,
                head,
            },
            remote: None,
            imm: Some(ack),
            local: None,
            signaled: true,
            span,
        };
        // The doorbell rings when the CPU work of this send completes:
        // defer the post through the thread queue so charged CPU costs
        // actually delay the wire (and back-pressure under load). With
        // coalescing, every send deferred before the flush item runs joins
        // one postlist and shares a single doorbell charge.
        if ctx.config().doorbell_coalesce {
            ctx.post_coalesced(self, wr);
            return Ok(());
        }
        let me = self.clone();
        ctx.thread().exec(Dur::ZERO, move |_| {
            if let Some(ctx) = me.ctx.upgrade() {
                // One doorbell per WR: the reference (batch=1) cost model.
                me.flow_post_wr(&ctx, wr, true);
            }
        });
        Ok(())
    }

    /// Post one data WR through the context's flow gate (§V-C). A slot
    /// that no WR will complete — the channel closed while the WR queued,
    /// or the QP died under us (keepalive race) — goes straight back.
    fn flow_post_wr(self: &Rc<Self>, ctx: &XrdmaContext, wr: SendWr, doorbell: bool) {
        let me = self.clone();
        ctx.flow_post(move || {
            let Some(ctx) = me.ctx.upgrade() else { return };
            if me.closed.get() {
                ctx.flow_release();
                return;
            }
            if doorbell {
                ctx.charge_doorbell(1);
            }
            match ctx.rnic().post_send(&me.qp, wr) {
                Ok(()) => me.flow_slots.set(me.flow_slots.get() + 1),
                Err(_) => {
                    ctx.flow_release();
                    me.fail(CloseReason::PeerDead);
                }
            }
        });
    }

    /// Drain pending sends while the window has room (called on ack).
    fn drain_pending(self: &Rc<Self>) {
        let Some(ctx) = self.ctx.upgrade() else {
            return;
        };
        let was_stalled = self.stalled_since.get().is_some();
        loop {
            if !self.tx.borrow().can_send() {
                break;
            }
            let Some(p) = self.pending.borrow_mut().pop_front() else {
                self.stalled_since.set(None);
                break;
            };
            if self
                .transmit(&ctx, p.kind, p.body, p.rpc_id, p.trace, p.mux)
                .is_err()
            {
                break;
            }
        }
        if self.pending.borrow().is_empty() {
            self.stalled_since.set(None);
        }
        if was_stalled && self.stalled_since.get().is_none() {
            tele!(WindowResume {
                node: ctx.node().0,
                qpn: self.qp.qpn.0,
            });
        }
    }

    /// Send a non-sequenced control message (ACK / NOP / Close).
    pub(crate) fn send_ctrl(self: &Rc<Self>, kind: MsgKind) {
        if self.closed.get() && kind != MsgKind::Close {
            return;
        }
        if self.ctrl_outstanding.get() >= MAX_CTRL_OUTSTANDING {
            return; // bounded; the ack will piggyback on later traffic
        }
        let Some(ctx) = self.ctx.upgrade() else {
            return;
        };
        let ack = self.rx.borrow_mut().take_ack();
        let hdr = Header::new(kind, 0, ack, 0, 0);
        {
            let mut st = self.stats.borrow_mut();
            match kind {
                MsgKind::Ack => st.standalone_acks += 1,
                MsgKind::Nop => st.nops_sent += 1,
                _ => {}
            }
        }
        self.ctrl_outstanding.set(self.ctrl_outstanding.get() + 1);
        let wr = SendWr {
            wr_id: wr_ctrl(),
            op: SendOp::Send,
            payload: Payload::Padded {
                head: hdr.encode(),
                total: hdr.encoded_len() as u64,
            },
            remote: None,
            imm: Some(ack),
            local: None,
            signaled: true,
            span: SpanToken::NONE,
        };
        // Controls bypass flow control: they are tiny and bounded.
        if ctx.rnic().post_send(&self.qp, wr).is_err() {
            // QP died under us (error transition / crash): same verdict the
            // data path reaches, so an idle channel can't outlive its QP.
            self.fail(CloseReason::PeerDead);
            return;
        }
        self.last_tx.set(ctx.world().now());
    }

    /// Post the keepalive probe: a zero-byte RDMA Write (§V-A).
    pub(crate) fn send_probe(self: &Rc<Self>) {
        if self.closed.get() || self.probe_outstanding.get() {
            return;
        }
        let Some(ctx) = self.ctx.upgrade() else {
            return;
        };
        self.probe_outstanding.set(true);
        self.last_probe.set(ctx.world().now());
        self.stats.borrow_mut().keepalive_probes += 1;
        tele!(KeepaliveProbe {
            node: ctx.node().0,
            qpn: self.qp.qpn.0,
        });
        let wr = SendWr {
            wr_id: wr_probe(),
            op: SendOp::Write,
            payload: Payload::Zero(0),
            remote: None,
            imm: None,
            local: None,
            signaled: true,
            span: SpanToken::NONE,
        };
        if ctx.rnic().post_send(&self.qp, wr).is_err() {
            // The QP is already in Error: the probe can never complete and
            // `probe_outstanding` would wedge true, so the dead peer would
            // never be declared. Fail now, exactly as a probe CQE error
            // would (§V-A).
            self.fail(CloseReason::PeerDead);
        }
    }

    // ------------------------------------------------------------------
    // Receive path (driven by the context's poll loop)
    // ------------------------------------------------------------------

    /// A receive completion landed on this channel. `span` is the causal
    /// span the sender attached to the message (rides the CQE).
    pub(crate) fn on_recv(self: &Rc<Self>, slot_id: u32, byte_len: u64, span: SpanToken) {
        let Some(ctx) = self.ctx.upgrade() else {
            return;
        };
        let now = ctx.world().now();
        self.last_rx.set(now);
        // SRQ mode: the slot lives in the context's shared pool; otherwise
        // it is one of this channel's pre-posted buffers.
        let slot = if ctx.has_srq() {
            ctx.srq_slot(slot_id)
        } else {
            self.recv_slots.borrow().get(slot_id)
        };
        let Some(slot) = slot else { return };
        // Parse the X-RDMA header out of the landed bytes.
        let mut head = [0u8; 128];
        let head = &mut head[..byte_len.clamp(crate::proto::BASE_LEN as u64, 128) as usize];
        let landed = ctx.memcache().read_into(&slot, 0, head).ok();
        let Some((hdr, hdr_len)) = landed.and_then(|()| Header::decode(head)) else {
            // Corrupt / foreign message: drop and repost.
            self.repost_slot(slot_id, &slot);
            return;
        };

        // Every header carries a cumulative ack — process it first
        // (Algorithm 1 sender side RECV_MESSAGE).
        self.apply_peer_ack(hdr.ack);

        match hdr.kind {
            MsgKind::Ack | MsgKind::Nop => {
                // Pure control: ack already applied.
            }
            MsgKind::Close => {
                self.repost_slot(slot_id, &slot);
                self.fail(CloseReason::Remote);
                return;
            }
            MsgKind::KeepAlive => {}
            MsgKind::Request | MsgKind::Response | MsgKind::OneWay => {
                self.on_sequenced(&ctx, hdr, hdr_len as u64, &slot, now, span);
            }
        }
        self.repost_slot(slot_id, &slot);
        self.maybe_standalone_ack(&ctx);
        // Acks applied above may have emptied the last in-flight work.
        self.maybe_notify_drained();
    }

    fn on_sequenced(
        self: &Rc<Self>,
        ctx: &Rc<XrdmaContext>,
        hdr: Header,
        hdr_len: u64,
        slot: &McBuf,
        now: Time,
        span: SpanToken,
    ) {
        let seq = hdr.seq;
        match self.rx.borrow_mut().on_arrival(seq) {
            RxAccept::Duplicate => return,
            RxAccept::Fresh => {}
        }
        {
            let mut st = self.stats.borrow_mut();
            st.msgs_received += 1;
            st.bytes_received += hdr.body_len;
        }
        let len = hdr.body_len;
        let large = hdr.large;
        let buf = match large {
            None if len == 0 => None,
            // Small/eager: body landed right behind the header. Stage it
            // into a private buffer now (the slot is reposted immediately);
            // sparse backing makes this cheap for size-only payloads.
            None => {
                let staged = ctx.memcache().alloc(len).ok();
                ctx.thread().charge(ctx.memcache().take_reg_cost());
                if let Some(staged) = &staged {
                    let _ = ctx.memcache().copy(slot, hdr_len, staged, len);
                }
                staged
            }
            // Rendezvous: the landing buffer for the RDMA Read.
            Some(_) => match ctx.memcache().alloc(len.max(1)) {
                Ok(b) => {
                    ctx.thread().charge(ctx.memcache().take_reg_cost());
                    Some(b)
                }
                Err(_) => {
                    // Out of memory: drop (peer retries via timeout
                    // semantics above our layer). Never silent — the
                    // counter and event let operators distinguish a
                    // memcache-pressure drop from network loss.
                    self.stats.borrow_mut().oom_drops += 1;
                    tele!(MsgDropOom {
                        node: ctx.node().0,
                        peer: self.peer.0,
                        qpn: self.qp.qpn.0,
                        seq,
                        bytes: len,
                    });
                    return;
                }
            },
        };
        let msg = InMsg {
            hdr,
            buf,
            t2: now,
            span,
            frags_left: 0,
        };
        self.inbox.borrow_mut().insert(seq, msg);
        match (large, buf) {
            // Read-replace-write (§IV-C): fetch the body with RDMA Read.
            (Some(desc), Some(buf)) => self.issue_fetch(ctx, seq, desc, len, buf),
            _ => {
                let ready = self.rx.borrow_mut().on_complete(seq).count();
                self.deliver_ready(ctx, ready);
            }
        }
    }

    /// Issue the RDMA Read(s) for a large payload, honouring flow-control
    /// fragmentation (§V-C).
    fn issue_fetch(
        self: &Rc<Self>,
        ctx: &Rc<XrdmaContext>,
        seq: u32,
        desc: LargeDesc,
        len: u64,
        buf: McBuf,
    ) {
        let fragmented = ctx.config().flowctl.enabled;
        let frag = if fragmented { FRAG_BYTES } else { u64::MAX };
        let nfrags = if len == 0 { 1u64 } else { len.div_ceil(frag) };
        if let Some(msg) = self.inbox.borrow_mut().get_mut(seq) {
            msg.frags_left = nfrags as u32;
        }
        if fragmented && nfrags > 1 {
            self.stats.borrow_mut().fragments += nfrags;
        }
        for i in 0..nfrags {
            let off = i * frag;
            let flen = (len - off).min(frag).max(if len == 0 { 0 } else { 1 });
            let wr = SendWr::read(
                wr_read(seq, i as u32),
                buf.addr + off,
                buf.lkey,
                flen,
                desc.addr + off,
                desc.rkey,
            );
            self.flow_post_wr(ctx, wr, false);
        }
    }

    /// A read fragment for `seq` completed.
    pub(crate) fn on_read_done(self: &Rc<Self>, wr_id: u64) {
        let Some(ctx) = self.ctx.upgrade() else {
            return;
        };
        let seq = wr_read_seq(wr_id);
        let finished = match self.inbox.borrow_mut().get_mut(seq) {
            Some(msg) if msg.frags_left > 0 => {
                msg.frags_left -= 1;
                msg.frags_left == 0
            }
            _ => false,
        };
        if finished {
            // Algorithm 1: rdma_read_done → msg.recved; rta advances over
            // the contiguous completed prefix.
            let ready = self.rx.borrow_mut().on_complete(seq).count();
            self.deliver_ready(&ctx, ready);
            self.maybe_standalone_ack(&ctx);
        }
    }

    /// Deliver the `ready` messages whose sequence became contiguous: they
    /// sit at the inbox edge, which follows the receive window's rta.
    fn deliver_ready(self: &Rc<Self>, ctx: &Rc<XrdmaContext>, ready: usize) {
        for _ in 0..ready {
            let msg = self.inbox.borrow_mut().pop_front();
            if let Some(msg) = msg {
                self.deliver_one(ctx, msg);
            }
        }
    }

    fn deliver_one(self: &Rc<Self>, ctx: &Rc<XrdmaContext>, msg: InMsg) {
        let mut cpu = ctx.config().cpu_recv;
        if msg.hdr.trace.is_some() {
            cpu += CPU_TRACE;
        }
        ctx.thread().charge(cpu);

        let hdr = msg.hdr;
        let source = match &msg.buf {
            Some(buf) if hdr.body_len > 0 => MsgSource::Region {
                rnic: ctx.rnic().clone(),
                lkey: buf.lkey,
                addr: buf.addr,
            },
            _ => MsgSource::Empty,
        };
        let app_msg = XrdmaMsg {
            kind: hdr.kind,
            rpc_id: hdr.rpc_id,
            len: hdr.body_len,
            trace: hdr.trace,
            mux: hdr.mux,
            source,
        };

        let before = ctx.thread().busy_until();
        match hdr.kind {
            MsgKind::Request | MsgKind::OneWay => {
                let token = ReplyToken {
                    rpc_id: hdr.rpc_id,
                    traced: hdr.trace,
                    t2_ns: ctx.local_clock_at(msg.t2),
                };
                let cb = self.on_request.borrow();
                if let Some(cb) = cb.as_ref() {
                    cb(self, app_msg, token);
                }
            }
            MsgKind::Response => {
                let waiter = self.rpc_waiters.borrow_mut().remove(&hdr.rpc_id);
                if let Some(w) = waiter {
                    {
                        let mut st = self.stats.borrow_mut();
                        st.rpcs_outstanding = st.rpcs_outstanding.saturating_sub(1);
                        st.rpcs_completed += 1;
                    }
                    ctx.record_rpc_latency(ctx.world().now().since(w.sent_at));
                    if let (Some(trace_id), Some(t)) = (w.trace_id, hdr.trace) {
                        ctx.record_client_trace(trace_id, w.t1_ns, t.t1_ns, hdr.rpc_id);
                    }
                    (w.cb)(self, app_msg);
                }
            }
            _ => unreachable!("non-sequenced kinds handled earlier"),
        }
        // Slow-operation watchdog (§VI-A method III).
        let handler_cost = ctx.thread().busy_until().since(before);
        if crate::context::slow_op_violates(handler_cost, ctx.config().slow_threshold) {
            ctx.record_slow_op("app-handler", handler_cost);
        }
        // Span closes when the handler's charged CPU actually finishes, so
        // the `app` stage carries the handler cost (DESIGN.md §8).
        span_end!(msg.span, ctx.thread().busy_until().nanos());

        // Release the staging buffer now the handler is done.
        if let Some(buf) = msg.buf {
            ctx.memcache().release(&buf);
        }
    }

    /// Process a piggybacked / standalone cumulative ack from the peer.
    fn apply_peer_ack(self: &Rc<Self>, ack: u32) {
        let newly = self.tx.borrow_mut().on_ack(ack).count();
        if newly == 0 {
            return;
        }
        let ctx = self.ctx.upgrade();
        for _ in 0..newly {
            // Algorithm 1: call on_acked(messages[i]) — release pinned
            // buffers; the peer's application has consumed the message.
            let buf = self.outgoing.borrow_mut().pop_front();
            if let (Some(ctx), Some(buf)) = (&ctx, buf) {
                ctx.memcache().release(&buf);
            }
        }
        self.drain_pending();
    }

    /// §V-B: "After receiving N messages successfully but without any ACK,
    /// a standalone ACK message will be triggered."
    fn maybe_standalone_ack(self: &Rc<Self>, ctx: &Rc<XrdmaContext>) {
        let after = ctx.config().ack_after;
        if self.rx.borrow().needs_standalone_ack(after) {
            self.send_ctrl(MsgKind::Ack);
        }
    }

    fn repost_slot(&self, slot_id: u32, slot: &McBuf) {
        // Shared-pool slots go back through the context (the SRQ outlives
        // this channel); private slots re-arm this QP's receive queue,
        // their consumed message dropped from the MR first.
        if let Some(ctx) = self.ctx.upgrade() {
            if ctx.has_srq() {
                ctx.repost_srq_slot(slot_id);
                return;
            }
            let _ = ctx.memcache().discard(slot);
        }
        check_repost(self.qp.post_recv(recv_wr(slot_id, slot)), slot_id);
    }

    /// Send-completion bookkeeping (called by the context poll loop).
    pub(crate) fn on_send_complete(self: &Rc<Self>, wr_id: u64, ok: bool) {
        if !ok {
            self.fail(CloseReason::PeerDead);
            return;
        }
        match wr_tag(wr_id) {
            TAG_CTRL => {
                self.ctrl_outstanding
                    .set(self.ctrl_outstanding.get().saturating_sub(1));
            }
            TAG_PROBE => {
                self.probe_outstanding.set(false);
            }
            _ => {}
        }
        self.maybe_notify_drained();
    }

    // ------------------------------------------------------------------
    // Drain (eviction support)
    // ------------------------------------------------------------------

    /// No in-flight work anywhere on this channel: every sequenced message
    /// acked, nothing window-queued, no outstanding RPC, control or probe
    /// WR, and no data WR awaiting its CQE. This is the eviction
    /// precondition — tearing down earlier would wipe posted WRs.
    pub fn is_drained(&self) -> bool {
        self.tx.borrow().in_flight() == 0
            && self.pending.borrow().is_empty()
            && self.rpc_waiters.borrow().is_empty()
            && self.ctrl_outstanding.get() == 0
            && !self.probe_outstanding.get()
            && self.flow_slots.get() == 0
    }

    /// One-shot: fire `cb` as soon as [`Self::is_drained`] holds (possibly
    /// immediately). A channel that dies first fires the callback from
    /// teardown so an evictor never wedges. Only one waiter at a time —
    /// a second registration replaces the first.
    pub fn on_drained(self: &Rc<Self>, cb: impl FnOnce(&Rc<XrdmaChannel>) + 'static) {
        if self.closed.get() || self.is_drained() {
            cb(self);
            return;
        }
        // xrdma-lint: allow(hot-path-alloc) -- one-shot eviction waiter, installed off the data path
        *self.drain_waiter.borrow_mut() = Some(Box::new(cb));
    }

    pub(crate) fn maybe_notify_drained(self: &Rc<Self>) {
        if self.drain_waiter.borrow().is_none() || !self.is_drained() {
            return;
        }
        let cb = self.drain_waiter.borrow_mut().take();
        if let Some(cb) = cb {
            cb(self);
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Graceful close: notify the peer, then release everything locally.
    ///
    /// Teardown is deferred a grace period so the Close control message
    /// actually leaves the send queue before the QP is recycled.
    pub fn close(self: &Rc<Self>) {
        if self.closed.get() {
            return;
        }
        self.send_ctrl(MsgKind::Close);
        if let Some(ctx) = self.ctx.upgrade() {
            let me = self.clone();
            ctx.world().schedule_in(Dur::micros(100), move || {
                me.fail(CloseReason::Local);
            });
        } else {
            self.fail(CloseReason::Local);
        }
    }

    /// Timer hook: flush a pending ack when there has been no reverse
    /// traffic to piggyback it on (keeps one-way senders from pinning
    /// their buffers forever).
    pub(crate) fn idle_ack(self: &Rc<Self>) {
        if self.rx.borrow().unsent_acks() > 0 {
            self.send_ctrl(MsgKind::Ack);
        }
    }

    /// Close and release everything locally: after a graceful close, the
    /// peer's Close, or when keepalive or a data error found the peer dead.
    /// Idempotent.
    pub(crate) fn fail(self: &Rc<Self>, reason: CloseReason) {
        if self.closed.replace(true) {
            return;
        }
        // Fail every outstanding RPC: callers get a Close-kind message
        // (`XrdmaMsg::is_error`) instead of silently hanging forever. In
        // rpc_id order, not bucket order: the callbacks reach the model.
        let mut waiters: Vec<_> = std::mem::take(&mut *self.rpc_waiters.borrow_mut())
            .into_iter()
            .collect();
        waiters.sort_unstable_by_key(|&(rpc_id, _)| rpc_id);
        for (_, w) in waiters {
            let err_msg = XrdmaMsg::error_msg();
            {
                let mut st = self.stats.borrow_mut();
                st.rpcs_outstanding = st.rpcs_outstanding.saturating_sub(1);
            }
            (w.cb)(self, err_msg);
        }
        if let Some(ctx) = self.ctx.upgrade() {
            // Release the flow-control slots held by WRs that will never
            // complete (the QP is about to be reset, wiping its queues).
            let held = self.flow_slots.replace(0);
            for _ in 0..held {
                ctx.flow_release();
            }
            // Release receive slots and any pinned buffers.
            for buf in std::mem::take(&mut *self.recv_slots.borrow_mut()).iter() {
                ctx.memcache().release(&buf);
            }
            for buf in self.outgoing.borrow_mut().take_all() {
                ctx.memcache().release(&buf);
            }
            for msg in self.inbox.borrow_mut().take_all() {
                if let Some(buf) = msg.buf {
                    ctx.memcache().release(&buf);
                }
            }
            tele!(ChannelClose {
                node: ctx.node().0,
                peer: self.peer.0,
                qpn: self.qp.qpn.0,
                reason: reason.name(),
            });
            ctx.channel_closed(self, reason);
        }
        // A drain waiter must never wedge: a dying channel counts as
        // drained (the evictor observes `is_closed` and skips the close).
        let drained = self.drain_waiter.borrow_mut().take();
        if let Some(cb) = drained {
            cb(self);
        }
        if let Some(cb) = self.on_close.borrow().as_ref() {
            cb(reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(addr: u64, lkey: u32) -> McBuf {
        McBuf {
            addr,
            len: 100,
            lkey,
            rkey: lkey + 1,
        }
    }

    #[test]
    fn recv_slots_store_runs_and_return_what_was_pushed() {
        // Two slots back to back, a gap, two more, then a new arena.
        let pushed = [
            buf(1_000, 7),
            buf(1_100, 7),
            buf(1_300, 7),
            buf(1_400, 7),
            buf(1_500, 9),
            buf(1_600, 9),
        ];
        let mut slots = RecvSlots::default();
        for (i, &b) in pushed.iter().enumerate() {
            assert_eq!(slots.push(b), i as u32);
        }
        assert_eq!(slots.runs.len(), 3, "a gap and a new lkey each start a run");
        assert_eq!(slots.len(), pushed.len());
        for (i, b) in pushed.iter().enumerate() {
            let got = slots.get(i as u32).expect("pushed slot");
            let key = |b: &McBuf| (b.addr, b.len, b.lkey, b.rkey);
            assert_eq!(key(&got), key(b), "slot {i}");
        }
        assert!(slots.get(pushed.len() as u32).is_none());
        let addrs: Vec<u64> = slots.iter().map(|b| b.addr).collect();
        assert_eq!(addrs, pushed.map(|b| b.addr));
    }

    #[test]
    fn recv_slots_of_unequal_length_do_not_merge() {
        let mut slots = RecvSlots::default();
        slots.push(buf(0, 1));
        slots.push(McBuf {
            len: 50,
            ..buf(100, 1)
        });
        slots.push(buf(150, 1));
        assert_eq!(slots.runs.len(), 3);
        assert_eq!(slots.get(1).map(|b| (b.addr, b.len)), Some((100, 50)));
        assert_eq!(slots.get(2).map(|b| (b.addr, b.len)), Some((150, 100)));
    }

    #[test]
    fn repost_to_dead_qp_is_ignored() {
        check_repost(Ok(()), 0);
        check_repost(Err(VerbsError::InvalidState("post_recv on RESET qp")), 0);
    }
}
