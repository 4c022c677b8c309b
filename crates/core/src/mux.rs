//! Connection multiplexing: many logical channels over few cached QPs
//! (ROADMAP item 2, the RDMAvisor lesson).
//!
//! Per-connection RNIC state is the scalability killer: once live QP
//! contexts spill the RNIC's SRAM cache (`qpcache.rs` in the rnic crate
//! models exactly this), every send pays a PCIe round trip and message
//! rate falls off a cliff. The middleware answer is to stop spending a QP
//! per connection:
//!
//! * A [`ChannelMux`] maps any number of cheap [`LogicalChannel`]s onto a
//!   bounded pool of physical QPs. Logical channels to one peer hash over
//!   `mux_lanes` slots (per-peer-group hashing), so one hot logical
//!   stream cannot monopolize a lane while fan-in stays bounded.
//! * Every frame carries a [`MuxDesc`] in the wire header — the logical
//!   channel id plus a per-logical sequence number — so the receiving mux
//!   can demultiplex without per-connection receive state.
//! * Physical slots are established **lazily on first send** and evicted
//!   **LRU** when the pool is full: the victim drains its in-flight WRs
//!   (acks, RPCs, probes, posted-but-uncompleted sends), closes, and its
//!   QP returns to the context's QP cache. Logical seq state lives in the
//!   mux, not the channel, so a later send transparently re-establishes
//!   the slot and the logical stream continues — the wire protocol
//!   underneath is oblivious (DESIGN.md §3.16).
//! * Receive buffering rides the context SRQ (`use_srq`): one shared slot
//!   pool serves the whole QP pool, so receive memory scales with
//!   `srq_size`, not with the logical channel count.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::hash::Hash;
use std::rc::{Rc, Weak};

use bytes::Bytes;

use xrdma_fabric::NodeId;
use xrdma_sim::inthash::{IntMap, IntSet};
use xrdma_sim::Dur;
use xrdma_telemetry::tele;

use crate::channel::{BodySpec, ReplyToken, XrdmaChannel, XrdmaMsg};
use crate::context::XrdmaContext;
use crate::error::XrdmaError;
use crate::proto::MuxDesc;
use crate::stats::MuxStats;

// ---------------------------------------------------------------------
// LruSlots — the pure slot-recency structure
// ---------------------------------------------------------------------

/// Deterministic LRU over slot keys: recency is a monotone use counter
/// (never wall clock — the determinism contract). A key finds its stamp
/// by hash; stamps find their key through a BTree, so `pop_lru` takes the
/// least recent in `O(log n)` and no bucket order is ever walked.
/// Factored out of [`ChannelMux`] so the criterion micro-bench can drive
/// it directly.
pub struct LruSlots<K: Clone + Eq + Hash> {
    clock: u64,
    stamps: IntMap<K, u64>,
    /// Ordered by stamp: `pop_lru` takes the first entry.
    order: BTreeMap<u64, K>,
}

impl<K: Clone + Eq + Hash> LruSlots<K> {
    pub fn new() -> Self {
        LruSlots {
            clock: 0,
            stamps: IntMap::default(),
            order: BTreeMap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    pub fn contains(&self, k: &K) -> bool {
        self.stamps.contains_key(k)
    }

    /// Mark `k` most-recently-used. Returns `true` when it was present
    /// (a hit); a miss leaves the structure untouched.
    pub fn touch(&mut self, k: &K) -> bool {
        let Some(stamp) = self.stamps.get_mut(k) else {
            return false;
        };
        let old = *stamp;
        self.clock += 1;
        *stamp = self.clock;
        // The two indexes are mutated together, so `old` is always
        // present; tolerate a desync rather than panicking on the send
        // path.
        if let Some(key) = self.order.remove(&old) {
            self.order.insert(self.clock, key);
        }
        true
    }

    /// Insert `k` as most-recently-used (re-inserting refreshes it).
    pub fn insert(&mut self, k: K) {
        if self.touch(&k) {
            return;
        }
        self.clock += 1;
        self.stamps.insert(k.clone(), self.clock);
        self.order.insert(self.clock, k);
    }

    /// Remove and return the least-recently-used key.
    pub fn pop_lru(&mut self) -> Option<K> {
        let (&stamp, _) = self.order.iter().next()?;
        let k = self.order.remove(&stamp)?;
        self.stamps.remove(&k);
        Some(k)
    }

    /// Drop `k` from the tracking (eviction by death, not by LRU choice).
    pub fn remove(&mut self, k: &K) -> bool {
        let Some(stamp) = self.stamps.remove(k) else {
            return false;
        };
        self.order.remove(&stamp);
        true
    }
}

impl<K: Clone + Eq + Hash> Default for LruSlots<K> {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// ChannelMux
// ---------------------------------------------------------------------

/// `(peer, lane)` — the unit of physical-QP sharing. All logical channels
/// whose `lcid % mux_lanes` agree share one slot toward a given peer.
pub type SlotKey = (NodeId, u64);

/// A frame waiting for its slot to (re-)establish.
enum QueuedFrame {
    OneWay(MuxDesc, BodySpec),
    Request(MuxDesc, BodySpec, ResponseCb),
}

/// Mux RPC callbacks never see the physical channel (it may be evicted or
/// never established); errors arrive as `XrdmaMsg::is_error()` messages,
/// exactly like the unmuxed path.
type ResponseCb = Box<dyn FnOnce(XrdmaMsg)>;

/// Backpressure-retry poll interval. Flow-cap budget frees on RPC
/// completions (a few-microsecond cadence under load), so a 20 µs tick
/// keeps deferred frames moving without a per-completion hook.
const BACKPRESSURE_RETRY_NS: u64 = 20_000;

enum Slot {
    /// Wants a QP but the pool is at capacity with nothing evictable
    /// (every occupant is itself still connecting); the connect is issued
    /// by [`ChannelMux::pump`] as soon as capacity frees.
    Parked { queued: VecDeque<QueuedFrame> },
    /// `ctx.connect` in flight; frames queue in order.
    Connecting { queued: VecDeque<QueuedFrame> },
    /// Bound to a QP. `deferred` holds frames the context's flow cap
    /// (§V-C outstanding-WR budget) bounced: the mux absorbs transient
    /// backpressure and retries in arrival order, because dropping a
    /// frame here would burn its lseq and dup-drop every later frame on
    /// that logical stream.
    Live {
        ch: Rc<XrdmaChannel>,
        deferred: VecDeque<QueuedFrame>,
    },
    /// LRU victim draining in-flight work before close; frames arriving
    /// now queue for the re-establishment that follows the close.
    Draining { queued: VecDeque<QueuedFrame> },
}

/// Per-logical sequence state, kept by the mux for each logical channel
/// that has sent or received at least one frame: 24 B, allocated at the
/// first frame in either direction. A channel that never carries a frame
/// costs its mux nothing here.
#[derive(Clone, Copy, Default)]
struct LogicalSeq {
    /// Next per-logical sequence number to stamp on an outbound frame.
    tx_seq: u64,
    /// Receive side: next expected lseq (everything below is a duplicate
    /// from a re-establishment race).
    rx_next: u64,
    /// Frames delivered to the handler.
    received: u64,
}

/// [`LogicalChannel::seq`] before the channel's first frame.
const NO_SEQ: u32 = u32::MAX;

/// The multiplexing layer. One per context; serves both roles (client
/// slots via [`ChannelMux::open`], server dispatch via
/// [`ChannelMux::serve`]).
///
/// Per logical channel the mux holds an 8 B `Rc` in `opened` (or a
/// `discovered` entry) and, once the channel carries a frame, a 24 B
/// [`LogicalSeq`] in `seqs`; sequence state lives here, not in the
/// channel, so it survives slot eviction.
pub struct ChannelMux {
    ctx: Rc<XrdmaContext>,
    svc: u16,
    /// Max slots occupied (connecting + live) before LRU eviction.
    pool: usize,
    lanes: u64,
    /// Ordered by key: `drain_deferred` and `pump` serve slots in it.
    slots: RefCell<BTreeMap<SlotKey, Slot>>,
    /// Recency over Live slots only.
    lru: RefCell<LruSlots<SlotKey>>,
    /// First lcid this mux allocates; `open` hands out the ones after it
    /// in order.
    first_lcid: u64,
    /// Logical channels this mux opened, indexed by `lcid − first_lcid`.
    opened: RefCell<Vec<Rc<LogicalChannel>>>,
    /// Logical channels first named by a peer's frame, by `(peer, lcid)`.
    discovered: RefCell<IntMap<(NodeId, u64), Rc<LogicalChannel>>>,
    /// Sequence state of every logical channel that carried a frame,
    /// indexed by [`LogicalChannel::seq`].
    seqs: RefCell<Vec<LogicalSeq>>,
    /// Slot keys that were evicted at least once (re-establishment
    /// accounting).
    evicted_once: RefCell<IntSet<SlotKey>>,
    /// A backpressure-retry tick is already scheduled (one timer per mux,
    /// not per slot).
    retry_armed: Cell<bool>,
    stats: RefCell<MuxStats>,
    /// Receive-side delivery handler: `(logical, msg, reply)`.
    #[allow(clippy::type_complexity)]
    on_msg: RefCell<Option<Rc<dyn Fn(&Rc<LogicalChannel>, XrdmaMsg, Option<MuxReply>)>>>,
}

/// How to answer a mux-routed request (wraps the physical reply token).
pub struct MuxReply {
    ch: Rc<XrdmaChannel>,
    token: ReplyToken,
}

impl MuxReply {
    pub fn reply(self, body: Bytes) -> Result<(), XrdmaError> {
        self.ch.respond(self.token, body)
    }

    pub fn reply_size(self, len: u64) -> Result<(), XrdmaError> {
        self.ch.respond_size(self.token, len)
    }
}

/// A cheap logical connection: an id, a peer and an index — no QP, no
/// receive buffers, no window memory, no counters. Everything physical is
/// borrowed from the mux pool on demand.
///
/// 24 B of fields, a 40 B `Rc` allocation (a 48 B glibc chunk). Its
/// sequence state sits in the mux's table (see [`ChannelMux`]) from the
/// first frame it sends or receives; `seq` indexes it.
pub struct LogicalChannel {
    mux: Weak<ChannelMux>,
    pub lcid: u64,
    pub peer: NodeId,
    /// Index into the mux's `seqs` table, or [`NO_SEQ`] before the first
    /// frame in either direction.
    seq: Cell<u32>,
}

impl LogicalChannel {
    /// Fire-and-forget bytes over this logical stream.
    pub fn send_oneway(&self, body: Bytes) -> Result<(), XrdmaError> {
        let mux = self.mux.upgrade().ok_or(XrdmaError::ChannelClosed)?;
        mux.send_frame(self, |d| QueuedFrame::OneWay(d, BodySpec::Data(body)))
    }

    /// Fire-and-forget size-only frame (performance experiments).
    pub fn send_oneway_size(&self, len: u64) -> Result<(), XrdmaError> {
        let mux = self.mux.upgrade().ok_or(XrdmaError::ChannelClosed)?;
        mux.send_frame(self, |d| QueuedFrame::OneWay(d, BodySpec::Size(len)))
    }

    /// RPC over the logical stream; the response routes back through the
    /// physical channel's rpc machinery (eviction drains outstanding RPCs
    /// first, so a response never races a teardown).
    pub fn send_request(
        &self,
        body: Bytes,
        on_response: impl FnOnce(XrdmaMsg) + 'static,
    ) -> Result<(), XrdmaError> {
        let mux = self.mux.upgrade().ok_or(XrdmaError::ChannelClosed)?;
        mux.send_frame(self, |d| {
            // xrdma-lint: allow(hot-path-alloc) -- per-RPC callback storage is the API contract, not payload copying
            QueuedFrame::Request(d, BodySpec::Data(body), Box::new(on_response))
        })
    }

    /// RPC with a size-only payload.
    pub fn send_request_size(
        &self,
        len: u64,
        on_response: impl FnOnce(XrdmaMsg) + 'static,
    ) -> Result<(), XrdmaError> {
        let mux = self.mux.upgrade().ok_or(XrdmaError::ChannelClosed)?;
        mux.send_frame(self, |d| {
            // xrdma-lint: allow(hot-path-alloc) -- per-RPC callback storage is the API contract, not payload copying
            QueuedFrame::Request(d, BodySpec::Size(len), Box::new(on_response))
        })
    }

    /// `(next tx lseq, next expected rx lseq)` — survives eviction. Both
    /// read 0 before the first frame and once the mux is gone.
    pub fn seq_state(&self) -> (u64, u64) {
        let s = self.seq_entry();
        (s.tx_seq, s.rx_next)
    }

    /// Frames delivered to the mux handler on this logical channel.
    pub fn received(&self) -> u64 {
        self.seq_entry().received
    }

    fn seq_entry(&self) -> LogicalSeq {
        let Some(mux) = self.mux.upgrade() else {
            return LogicalSeq::default();
        };
        let seqs = mux.seqs.borrow();
        seqs.get(self.seq.get() as usize)
            .copied()
            .unwrap_or_default()
    }
}

impl ChannelMux {
    /// Build a mux over `ctx`, serving/connecting on `svc`. Pool geometry
    /// comes from the context config (`mux_pool`, `mux_lanes`).
    pub fn new(ctx: &Rc<XrdmaContext>, svc: u16) -> Rc<ChannelMux> {
        Self::with_epoch(ctx, svc, 0)
    }

    /// Like [`ChannelMux::new`], but folds a restart incarnation into the
    /// logical-id namespace: ids allocated by this mux start at
    /// `epoch << 32`. Receiver-side dedup state is keyed by the full
    /// 64-bit id, so a restarted process that bumps its epoch can never
    /// alias sequence state its predecessor left behind on a peer
    /// (which would silently drop the new incarnation's first frames
    /// as duplicates).
    pub fn with_epoch(ctx: &Rc<XrdmaContext>, svc: u16, epoch: u32) -> Rc<ChannelMux> {
        let (pool, lanes) = {
            let cfg = ctx.config();
            (cfg.mux_pool.max(1), cfg.mux_lanes.max(1))
        };
        Rc::new(ChannelMux {
            ctx: ctx.clone(),
            svc,
            pool,
            lanes,
            slots: RefCell::new(BTreeMap::new()),
            lru: RefCell::new(LruSlots::new()),
            first_lcid: ((epoch as u64) << 32) | 1,
            opened: RefCell::new(Vec::new()),
            discovered: RefCell::new(IntMap::default()),
            seqs: RefCell::new(Vec::new()),
            evicted_once: RefCell::new(IntSet::default()),
            retry_armed: Cell::new(false),
            stats: RefCell::new(MuxStats::default()),
            on_msg: RefCell::new(None),
        })
    }

    pub fn context(&self) -> &Rc<XrdmaContext> {
        &self.ctx
    }

    /// Counters; `pool_live` is filled from the live slot map on read.
    pub fn stats(&self) -> MuxStats {
        let mut s = *self.stats.borrow();
        s.pool_live = self
            .slots
            .borrow()
            .values()
            .filter(|sl| matches!(sl, Slot::Live { .. }))
            .count() as u64;
        s
    }

    /// Open a logical channel to `peer`. Costs a table entry — the
    /// physical slot is established lazily on the first send.
    pub fn open(self: &Rc<Self>, peer: NodeId) -> Rc<LogicalChannel> {
        let lcid = self.first_lcid + self.opened.borrow().len() as u64;
        // A frame from `peer` may have named this lcid first: then both
        // directions of `(peer, lcid)` share that logical channel.
        let found = self.discovered.borrow_mut().remove(&(peer, lcid));
        let lc = found.unwrap_or_else(|| self.new_logical(peer, lcid));
        self.opened.borrow_mut().push(lc.clone());
        lc
    }

    /// Open (or look up) the logical channel `(peer, lcid)`.
    pub fn logical_at(self: &Rc<Self>, peer: NodeId, lcid: u64) -> Rc<LogicalChannel> {
        // Below `first_lcid` the index wraps past any table length.
        let i = usize::try_from(lcid.wrapping_sub(self.first_lcid)).unwrap_or(usize::MAX);
        if let Some(lc) = self.opened.borrow().get(i).filter(|lc| lc.peer == peer) {
            return lc.clone();
        }
        let mut discovered = self.discovered.borrow_mut();
        let lc = discovered.entry((peer, lcid));
        lc.or_insert_with(|| self.new_logical(peer, lcid)).clone()
    }

    fn new_logical(self: &Rc<Self>, peer: NodeId, lcid: u64) -> Rc<LogicalChannel> {
        let lc = Rc::new(LogicalChannel {
            mux: Rc::downgrade(self),
            lcid,
            peer,
            seq: Cell::new(NO_SEQ),
        });
        self.stats.borrow_mut().logical_open += 1;
        lc
    }

    /// Update `lc`'s sequence state, allocating its entry on first use.
    fn with_seq<R>(&self, lc: &LogicalChannel, f: impl FnOnce(&mut LogicalSeq) -> R) -> R {
        let mut seqs = self.seqs.borrow_mut();
        if lc.seq.get() == NO_SEQ {
            let i = u32::try_from(seqs.len()).expect("fewer than 2^32 - 1 logical streams");
            seqs.push(LogicalSeq::default());
            lc.seq.set(i);
        }
        f(&mut seqs[lc.seq.get() as usize])
    }

    /// Serve mux traffic: accept physical channels on `svc` and dispatch
    /// inbound frames to logical channels (created on first sight).
    pub fn serve(
        self: &Rc<Self>,
        on_msg: impl Fn(&Rc<LogicalChannel>, XrdmaMsg, Option<MuxReply>) + 'static,
    ) {
        *self.on_msg.borrow_mut() = Some(Rc::new(on_msg));
        let me = Rc::downgrade(self);
        self.ctx.clone().listen(self.svc, move |ch| {
            let Some(mux) = me.upgrade() else { return };
            mux.adopt(ch);
        });
    }

    /// Wire the mux dispatch handler onto an accepted physical channel.
    fn adopt(self: &Rc<Self>, ch: Rc<XrdmaChannel>) {
        let me = Rc::downgrade(self);
        ch.set_on_request(move |ch, msg, token| {
            let Some(mux) = me.upgrade() else { return };
            mux.deliver(ch, msg, token);
        });
    }

    /// Demultiplex one inbound frame.
    fn deliver(self: &Rc<Self>, ch: &Rc<XrdmaChannel>, msg: XrdmaMsg, token: ReplyToken) {
        let Some(desc) = msg.mux else {
            // Non-mux traffic on the mux service: ignore (foreign client).
            return;
        };
        let lc = self.logical_at(ch.peer, desc.lcid);
        // Re-establishment dedup: the logical stream consumed this lseq
        // already (the physical window deduped within one QP lifetime;
        // this guards across lifetimes).
        let fresh = self.with_seq(&lc, |s| {
            if desc.lseq < s.rx_next {
                return false;
            }
            s.rx_next = desc.lseq + 1;
            s.received += 1;
            true
        });
        if !fresh {
            self.stats.borrow_mut().dup_drops += 1;
            tele!(MuxDupDrop {
                node: self.ctx.node().0,
                lcid: desc.lcid,
                lseq: desc.lseq,
            });
            return;
        }
        self.stats.borrow_mut().frames_rx += 1;
        let reply = if msg.kind == crate::proto::MsgKind::Request {
            Some(MuxReply {
                ch: ch.clone(),
                token,
            })
        } else {
            None
        };
        let cb = self.on_msg.borrow().clone();
        if let Some(cb) = cb {
            cb(&lc, msg, reply);
        }
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    fn send_frame(
        self: &Rc<Self>,
        lc: &LogicalChannel,
        make: impl FnOnce(MuxDesc) -> QueuedFrame,
    ) -> Result<(), XrdmaError> {
        let lseq = self.with_seq(lc, |s| {
            s.tx_seq += 1;
            s.tx_seq - 1
        });
        let desc = MuxDesc {
            lcid: lc.lcid,
            lseq,
        };
        let key: SlotKey = (lc.peer, lc.lcid % self.lanes);
        let frame = make(desc);
        // Fast path: the slot is live — touch recency and transmit. Two
        // reasons a frame defers instead: earlier frames already sit in
        // the slot's backlog (per-logical lseq order is a wire
        // invariant), or the context's flow cap is saturated. The cap is
        // checked *before* handing the frame over, because the frame
        // (body + response callback) is consumed by the channel call and
        // a bounced send could not be re-queued after the fact.
        enum Fast {
            Send(Rc<XrdmaChannel>, QueuedFrame),
            Deferred,
            Slow(QueuedFrame),
        }
        let fast = {
            let mut slots = self.slots.borrow_mut();
            match slots.get_mut(&key) {
                Some(Slot::Live { ch, deferred }) => {
                    if deferred.is_empty() && !self.ctx.flow_saturated() {
                        Fast::Send(ch.clone(), frame)
                    } else {
                        deferred.push_back(frame);
                        Fast::Deferred
                    }
                }
                _ => Fast::Slow(frame),
            }
        };
        match fast {
            Fast::Slow(frame) => self.park_frame(key, frame),
            Fast::Deferred => {
                self.lru.borrow_mut().touch(&key);
                self.note_deferred();
                Ok(())
            }
            Fast::Send(ch, frame) => {
                self.lru.borrow_mut().touch(&key);
                self.stats.borrow_mut().frames_sent += 1;
                self.transmit(&ch, frame)
            }
        }
    }

    /// Slow path of [`ChannelMux::send_frame`]: the slot is not live —
    /// park the frame; kick off lazy establishment if this slot key has
    /// never been (or is no longer) bound to a QP.
    fn park_frame(self: &Rc<Self>, key: SlotKey, frame: QueuedFrame) -> Result<(), XrdmaError> {
        {
            let mut slots = self.slots.borrow_mut();
            match slots.get_mut(&key) {
                Some(
                    Slot::Parked { queued }
                    | Slot::Connecting { queued }
                    | Slot::Draining { queued },
                ) => {
                    queued.push_back(frame);
                }
                None => {
                    let mut queued = VecDeque::new();
                    queued.push_back(frame);
                    slots.insert(key, Slot::Parked { queued });
                }
                // Single-threaded event loop: nothing ran between the two
                // borrows, so Live is impossible here.
                Some(Slot::Live { .. }) => unreachable!("slot went live between borrows"),
            }
        }
        self.stats.borrow_mut().frames_queued += 1;
        self.pump();
        Ok(())
    }

    fn transmit(
        self: &Rc<Self>,
        ch: &Rc<XrdmaChannel>,
        frame: QueuedFrame,
    ) -> Result<(), XrdmaError> {
        match frame {
            QueuedFrame::OneWay(desc, body) => ch.send_oneway_mux(desc, body),
            QueuedFrame::Request(desc, body, cb) => ch
                // xrdma-lint: allow(hot-path-alloc) -- adapter closure erases the channel arg; one Box per RPC, same as the unmuxed path
                .send_request_mux(desc, body, Box::new(move |_ch, msg| cb(msg)))
                .map(|_| ()),
        }
    }

    /// Record a frame absorbed by the backpressure buffer and make sure a
    /// retry tick is coming.
    fn note_deferred(self: &Rc<Self>) {
        self.stats.borrow_mut().frames_deferred += 1;
        self.arm_retry();
    }

    /// Deterministic backpressure retry: one world timer per mux, re-armed
    /// while any live slot still holds deferred frames. Completions are
    /// what actually free flow-cap budget, so a short poll keeps the
    /// retry latency bounded without coupling the mux into the CQ path.
    fn arm_retry(self: &Rc<Self>) {
        if self.retry_armed.replace(true) {
            return;
        }
        let me = Rc::downgrade(self);
        self.ctx
            .world()
            .schedule_in(Dur::nanos(BACKPRESSURE_RETRY_NS), move || {
                let Some(mux) = me.upgrade() else { return };
                mux.retry_armed.set(false);
                mux.drain_deferred();
            });
    }

    /// Flush deferred frames while the flow cap allows, one frame at a
    /// time in slot (BTree) order — deterministic, per-slot FIFO. Re-arms
    /// the retry timer if the cap closes before the backlog empties.
    fn drain_deferred(self: &Rc<Self>) {
        loop {
            if self.ctx.flow_saturated() {
                self.arm_retry();
                return;
            }
            let next = {
                let mut slots = self.slots.borrow_mut();
                let mut found = None;
                for (k, s) in slots.iter_mut() {
                    if let Slot::Live { ch, deferred } = s {
                        if let Some(frame) = deferred.pop_front() {
                            found = Some((*k, ch.clone(), frame));
                            break;
                        }
                    }
                }
                found
            };
            let Some((_, ch, frame)) = next else { return };
            self.stats.borrow_mut().frames_sent += 1;
            // A non-backpressure failure here (e.g. the channel began
            // closing under us) reports through the frame's own response
            // path; keep draining the other slots.
            let _ = self.transmit(&ch, frame);
        }
    }

    /// Slots currently holding (or acquiring) a QP. Parked and Draining
    /// slots hold nothing: the former is waiting for capacity, the latter
    /// is on its way out.
    fn occupied(&self) -> usize {
        self.slots
            .borrow()
            .values()
            .filter(|s| matches!(s, Slot::Connecting { .. } | Slot::Live { .. }))
            .count()
    }

    // ------------------------------------------------------------------
    // Slot lifecycle: lazy establish → live → LRU drain/close → reattach
    // ------------------------------------------------------------------

    /// Drive parked slots toward Connecting while the pool has (or can
    /// make) capacity. The pool bound is strict: occupancy never exceeds
    /// `pool` even mid-burst — a burst of first-sends to more peers than
    /// the pool holds parks the excess until connects resolve.
    fn pump(self: &Rc<Self>) {
        loop {
            let parked = self
                .slots
                .borrow()
                .iter()
                .find(|(_, s)| matches!(s, Slot::Parked { .. }))
                .map(|(k, _)| *k);
            let Some(key) = parked else { return };
            if self.occupied() >= self.pool {
                // Full: evict the LRU live slot. If nothing is live yet
                // (all occupants still connecting), wait — establishment
                // callbacks re-pump.
                let victim = self.lru.borrow_mut().pop_lru();
                match victim {
                    Some(v) => {
                        self.evict(v);
                        continue;
                    }
                    None => return,
                }
            }
            // Capacity available: issue the connect.
            {
                let mut slots = self.slots.borrow_mut();
                let Some(slot) = slots.get_mut(&key) else {
                    continue;
                };
                let queued = match slot {
                    Slot::Parked { queued } => std::mem::take(queued),
                    _ => continue,
                };
                *slot = Slot::Connecting { queued };
            }
            {
                let mut st = self.stats.borrow_mut();
                st.establishments += 1;
                let occ = self.occupied() as u64;
                st.pool_peak = st.pool_peak.max(occ);
            }
            let me = self.clone();
            let (peer, _) = key;
            self.ctx.connect(peer, self.svc, move |res| match res {
                Ok(ch) => me.slot_established(key, ch),
                Err(_) => me.slot_failed(key),
            });
        }
    }

    fn slot_established(self: &Rc<Self>, key: SlotKey, ch: Rc<XrdmaChannel>) {
        let reattach = self.evicted_once.borrow().contains(&key);
        if reattach {
            self.stats.borrow_mut().reestablishments += 1;
        }
        tele!(MuxEstablish {
            node: self.ctx.node().0,
            peer: key.0 .0,
            lane: key.1,
            qpn: ch.qp.qpn.0,
            reattach,
        });
        // The mux owns this channel's close notification: a death (peer
        // crash, keepalive) unbinds the slot so the next send re-runs the
        // lazy establishment.
        {
            let me = Rc::downgrade(self);
            ch.set_on_close(move |_reason| {
                if let Some(mux) = me.upgrade() {
                    mux.slot_detached(key);
                }
            });
        }
        // Inbound frames on a client-established channel (the peer's
        // responses ride rpc routing, but a symmetric peer may also push
        // one-ways back over the same QP).
        self.adopt(ch.clone());
        // Frames parked during establishment become the live slot's
        // deferred backlog and drain through the flow-cap-aware path: a
        // restart storm parks the whole population at t0, and blasting
        // it into the channels all at once would bounce most of it off
        // the context's outstanding-WR budget.
        {
            let mut slots = self.slots.borrow_mut();
            let deferred = match slots.remove(&key) {
                Some(
                    Slot::Connecting { queued }
                    | Slot::Parked { queued }
                    | Slot::Draining { queued },
                ) => queued,
                Some(Slot::Live { deferred, .. }) => deferred,
                None => VecDeque::new(),
            };
            slots.insert(
                key,
                Slot::Live {
                    ch: ch.clone(),
                    deferred,
                },
            );
        }
        self.lru.borrow_mut().insert(key);
        self.drain_deferred();
        // A slot going live may be exactly what a parked slot was waiting
        // to evict.
        self.pump();
    }

    fn slot_failed(self: &Rc<Self>, key: SlotKey) {
        // Connect failed: drop the slot; queued RPCs fail exactly like the
        // unmuxed path — a Close-kind message (`XrdmaMsg::is_error`).
        let removed = self.slots.borrow_mut().remove(&key);
        if let Some(
            Slot::Connecting { queued } | Slot::Parked { queued } | Slot::Draining { queued },
        ) = removed
        {
            for frame in queued {
                if let QueuedFrame::Request(_, _, cb) = frame {
                    cb(XrdmaMsg::error_msg());
                }
            }
        }
        self.pump();
    }

    fn evict(self: &Rc<Self>, key: SlotKey) {
        let ch = {
            let mut slots = self.slots.borrow_mut();
            match slots.remove(&key) {
                Some(Slot::Live { ch, deferred }) => {
                    // Backpressure-deferred frames ride along into the
                    // drain queue and re-send after re-establishment —
                    // their lseqs are already burned, so they must not
                    // be dropped.
                    slots.insert(key, Slot::Draining { queued: deferred });
                    ch
                }
                Some(other) => {
                    slots.insert(key, other);
                    return;
                }
                None => return,
            }
        };
        self.lru.borrow_mut().remove(&key);
        self.evicted_once.borrow_mut().insert(key);
        self.stats.borrow_mut().evictions += 1;
        tele!(MuxEvict {
            node: self.ctx.node().0,
            peer: key.0 .0,
            lane: key.1,
            qpn: ch.qp.qpn.0,
        });
        // Drain-then-close: in-flight WRs (unacked sends, outstanding
        // RPCs, probes, posted-but-uncompleted WRs) complete before the
        // teardown wipes the QP. A channel that dies first fires the
        // waiter from its own teardown.
        ch.on_drained(move |ch| {
            if !ch.is_closed() {
                ch.close();
            }
        });
        // Slot cleanup continues in slot_detached() when the close lands.
    }

    /// The physical channel under `key` closed (eviction or death).
    fn slot_detached(self: &Rc<Self>, key: SlotKey) {
        {
            let mut slots = self.slots.borrow_mut();
            match slots.remove(&key) {
                Some(Slot::Draining { queued }) if !queued.is_empty() => {
                    // Frames arrived mid-drain: park for immediate
                    // re-establishment (the pump below issues the connect
                    // — or queues behind other parked slots).
                    slots.insert(key, Slot::Parked { queued });
                }
                Some(Slot::Live { deferred, .. }) => {
                    // Death outside eviction: unbind; next send re-runs
                    // lazy establishment. Deferred RPCs fail like any
                    // RPC outstanding on a dying channel.
                    self.lru.borrow_mut().remove(&key);
                    self.evicted_once.borrow_mut().insert(key);
                    for frame in deferred {
                        if let QueuedFrame::Request(_, _, cb) = frame {
                            cb(XrdmaMsg::error_msg());
                        }
                    }
                }
                _ => {}
            }
        }
        self.pump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_channel_and_seq_entry_are_24_bytes() {
        assert_eq!(std::mem::size_of::<LogicalChannel>(), 24);
        assert_eq!(std::mem::size_of::<LogicalSeq>(), 24);
    }

    #[test]
    fn lru_basic_order() {
        let mut l: LruSlots<u32> = LruSlots::new();
        l.insert(1);
        l.insert(2);
        l.insert(3);
        assert_eq!(l.len(), 3);
        assert!(l.touch(&1)); // order now 2, 3, 1
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), Some(3));
        assert_eq!(l.pop_lru(), Some(1));
        assert_eq!(l.pop_lru(), None);
    }

    #[test]
    fn lru_touch_miss_and_remove() {
        let mut l: LruSlots<(u32, u64)> = LruSlots::new();
        assert!(!l.touch(&(1, 0)));
        l.insert((1, 0));
        l.insert((1, 1));
        assert!(l.remove(&(1, 0)));
        assert!(!l.remove(&(1, 0)));
        assert_eq!(l.pop_lru(), Some((1, 1)));
        assert!(l.is_empty());
    }

    #[test]
    fn lru_reinsert_refreshes() {
        let mut l: LruSlots<u8> = LruSlots::new();
        l.insert(1);
        l.insert(2);
        l.insert(1); // refresh, not duplicate
        assert_eq!(l.len(), 2);
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), Some(1));
    }
}
