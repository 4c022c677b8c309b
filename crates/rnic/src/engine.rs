//! The RNIC engine: WQE processing, segmentation, pacing, the wire-protocol
//! state machines, and delivery handling.
//!
//! ## Send path
//!
//! `post_send` appends to the QP's software SQ and activates the QP in the
//! **injector** — a round-robin scheduler over QPs with transmittable work.
//! The injector takes one MTU segment at a time from the head message of
//! each active QP, paced per-QP by DCQCN (`next_allowed`), and hands it to
//! the host's fabric port. The port's staging queue is bounded
//! (`inject_limit_bytes`); when full, the injector parks and re-arms on the
//! port's drain hook. This is what makes a huge WR occupy the pipe (the
//! head-of-line blocking the paper's flow control fragments away) while
//! still letting many QPs interleave at packet granularity.
//!
//! ## Reliability
//!
//! Message-granular go-back-N: the responder accepts the request stream
//! strictly in sequence, ACKs cumulatively, NAKs on a missing receive WR
//! (**RNR**) or a sequence gap, and the requester replays from its unacked
//! window. Retry exhaustion moves the QP to the error state and flushes all
//! outstanding work — the signal X-RDMA's keepalive (§V-A) turns into a
//! connection teardown.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;

use xrdma_fabric::packet::{PRIO_CTRL, PRIO_RDMA};
use xrdma_fabric::port::Port;
use xrdma_fabric::{Fabric, NicSink, NodeId, Packet};
use xrdma_sim::inthash::{IntMap, IntSet};
use xrdma_sim::{Dur, SimRng, Time, World};
use xrdma_telemetry::{span_mark, tele, SpanToken};

use crate::config::{PageKind, RnicConfig};
use crate::cq::{CompletionQueue, Cqe, CqeOpcode, CqeStatus};
use crate::dcqcn::DcqcnRp;
use crate::mem::{AccessFlags, MemTable, Mr, Pd};
use crate::qp::{PendingAtomic, PendingRead, Qp, QpCaps, RespJob, RxMsg, Srq, TxMsg, UnackedMsg};
use crate::verbs::{Payload, Qpn, SendOp, SendWr, VerbsError};

/// Verdict of an installed packet filter (the analysis framework's fault
/// injector, §VI-C "Emulate Fault").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterVerdict {
    Pass,
    /// Drop the packet silently (emulated loss).
    Drop,
    /// Deliver after an extra delay (emulated slow path).
    Delay(Dur),
}
use crate::wire::{Bth, FragData, NakKind, TokenedBth, WireOp};

/// Aggregate per-NIC counters.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct RnicStats {
    pub data_pkts_tx: u64,
    pub data_bytes_tx: u64,
    pub data_pkts_rx: u64,
    pub data_bytes_rx: u64,
    /// RNR NAKs this NIC generated as a responder.
    pub rnr_naks_sent: u64,
    /// RNR NAKs this NIC received as a requester (Fig 9's counter).
    pub rnr_naks_received: u64,
    pub seq_naks: u64,
    pub retransmissions: u64,
    pub cnps_sent: u64,
    pub cnps_received: u64,
    /// PFC pause edges observed on the host uplink.
    pub pfc_pauses_seen: u64,
    pub qp_cache_misses: u64,
    pub qp_cache_hits: u64,
    pub mr_cache_misses: u64,
    /// Packets dropped because their connection token was stale (a
    /// recycled QP's previous life).
    pub stale_drops: u64,
    /// Packets discarded by an injected receive fault (ICRC corruption or
    /// NIC-level drop; `xrdma-faults`).
    pub fault_rx_drops: u64,
    /// Packets delivered twice by an injected duplication fault.
    pub fault_rx_dups: u64,
    /// Doorbell rings (one per `post_send`, one per posted WR *list*).
    pub doorbells: u64,
    /// Send WRs accepted across all doorbells; `posted_wrs / doorbells`
    /// is the achieved postlist batching factor.
    pub posted_wrs: u64,
}

/// A simple lazy-LRU touch cache modelling on-NIC context SRAM.
struct TouchCache {
    capacity: usize,
    stamp: u64,
    map: IntMap<u32, u64>,
    order: VecDeque<(u64, u32)>,
}

impl TouchCache {
    fn new(capacity: usize) -> TouchCache {
        TouchCache {
            capacity,
            stamp: 0,
            map: IntMap::default(),
            order: VecDeque::new(),
        }
    }

    /// Touch a key; returns true on hit.
    fn touch(&mut self, key: u32) -> bool {
        self.stamp += 1;
        let hit = match self.map.get_mut(&key) {
            Some(s) => {
                *s = self.stamp;
                true
            }
            None => {
                self.map.insert(key, self.stamp);
                false
            }
        };
        self.order.push_back((self.stamp, key));
        // Lazy eviction: discard stale order entries, then evict true LRU
        // while above capacity.
        while self.map.len() > self.capacity {
            if let Some((s, k)) = self.order.pop_front() {
                if self.map.get(&k) == Some(&s) {
                    self.map.remove(&k);
                }
            } else {
                break;
            }
        }
        // Keep the order deque from growing without bound: drop the stale
        // entries, keeping every live one in LRU order. The deque is then
        // at most `capacity` long, so this is amortised O(1) per touch.
        if self.order.len() > self.capacity * 4 + 16 {
            let map = &self.map;
            self.order.retain(|(s, k)| map.get(k) == Some(s));
        }
        hit
    }
}

/// Injector scheduling state.
struct Injector {
    /// QPs ready to transmit now.
    ready: VecDeque<Qpn>,
    /// Membership for `ready` (avoid duplicates).
    in_ready: IntSet<Qpn>,
    /// Rate-throttled / backed-off QPs keyed by wake time.
    throttled: BinaryHeap<Reverse<(Time, u32)>>,
    in_throttled: IntSet<Qpn>,
    /// Waiting on the port drain hook.
    parked_on_port: bool,
}

impl Injector {
    fn new() -> Injector {
        Injector {
            ready: VecDeque::new(),
            in_ready: IntSet::default(),
            throttled: BinaryHeap::new(),
            in_throttled: IntSet::default(),
            parked_on_port: false,
        }
    }
}

/// One simulated RNIC, attached to a fabric host slot.
pub struct Rnic {
    world: Rc<World>,
    node: NodeId,
    /// Keeps the network alive for as long as any NIC exists (ports hold
    /// only weak references to switches).
    fabric: RefCell<Option<Rc<Fabric>>>,
    pub cfg: RnicConfig,
    /// Host uplink port; filled in right after fabric attach.
    port: RefCell<Option<Rc<Port>>>,
    /// Weak self-reference so trait-object callbacks can recover `Rc<Self>`.
    me: RefCell<std::rc::Weak<Rnic>>,
    mem: MemTable,
    /// QPs indexed by qpn, so index order is qpn order: `restart` and the
    /// `QpError` fault walk them in it.
    qps: RefCell<Vec<Option<Rc<Qp>>>>,
    next_qpn: Cell<u32>,
    next_cq: Cell<u32>,
    next_srq: Cell<u32>,
    injector: RefCell<Injector>,
    /// The injector's wake-up: armed iff a pass is scheduled. Lazily
    /// created on the first kick; the closure is boxed once and re-armed
    /// in place.
    kick_timer: RefCell<Option<xrdma_sim::Timer>>,
    /// QPs recovering from a rate cut, ticked by the DCQCN timer in qpn
    /// order.
    congested: RefCell<BTreeSet<Qpn>>,
    /// The shared DCQCN alpha/increase tick. Lazily created on the first
    /// congestion event; the closure is boxed once and re-armed in place.
    dcqcn_timer: RefCell<Option<xrdma_sim::Timer>>,
    qp_cache: RefCell<TouchCache>,
    mr_cache: RefCell<TouchCache>,
    /// When the shared QP-context fetch unit is next free. Cache misses
    /// ride a single ICM/PCIe engine, so concurrent misses queue behind
    /// each other NIC-wide: past the SRAM working set it is the fetch
    /// unit's *bandwidth*, not its latency, that caps message rate.
    ctx_fetch_free: Cell<Time>,
    stats: RefCell<RnicStats>,
    alive: Cell<bool>,
    /// Host uplink pause state per priority (observability).
    paused_prios: RefCell<[bool; 8]>,
    /// Non-RDMA traffic handler (the TCP model registers here).
    alt_sink: RefCell<Option<Box<dyn Fn(Packet)>>>,
    /// Receive-side fault-injection filter (Linux netfilter does not work
    /// on the RDMA data plane — §III — so the middleware provides one).
    filter: RefCell<Option<Box<dyn Fn(&Packet) -> FilterVerdict>>>,
    /// Packets dropped / delayed by the filter (stats).
    pub filtered_drops: Cell<u64>,
    pub filtered_delays: Cell<u64>,
    /// Arrivals buffered while a `PeerPause` fault window freezes this
    /// node; replayed in order on resume.
    #[cfg(feature = "faults")]
    paused_rx: RefCell<VecDeque<Packet>>,
    #[allow(dead_code)]
    rng: RefCell<SimRng>,
}

impl Rnic {
    /// Create an RNIC and attach it to `node`'s slot on the fabric.
    pub fn new(fabric: &Rc<Fabric>, node: NodeId, cfg: RnicConfig, rng: SimRng) -> Rc<Rnic> {
        let world = fabric.world().clone();
        let rnic = Rc::new(Rnic {
            world,
            node,
            fabric: RefCell::new(None),
            qp_cache: RefCell::new(TouchCache::new(cfg.qp_cache_entries)),
            mr_cache: RefCell::new(TouchCache::new(cfg.mr_cache_entries)),
            ctx_fetch_free: Cell::new(Time::ZERO),
            cfg,
            port: RefCell::new(None),
            me: RefCell::new(std::rc::Weak::new()),
            mem: MemTable::new(node.0),
            qps: RefCell::new(Vec::new()),
            next_qpn: Cell::new(1),
            next_cq: Cell::new(1),
            next_srq: Cell::new(1),
            injector: RefCell::new(Injector::new()),
            kick_timer: RefCell::new(None),
            congested: RefCell::new(BTreeSet::new()),
            dcqcn_timer: RefCell::new(None),
            stats: RefCell::new(RnicStats::default()),
            alive: Cell::new(true),
            paused_prios: RefCell::new([false; 8]),
            alt_sink: RefCell::new(None),
            filter: RefCell::new(None),
            filtered_drops: Cell::new(0),
            filtered_delays: Cell::new(0),
            #[cfg(feature = "faults")]
            paused_rx: RefCell::new(VecDeque::new()),
            rng: RefCell::new(rng),
        });
        // Attach: fabric hands us our uplink port; we hand it our sink.
        *rnic.me.borrow_mut() = Rc::downgrade(&rnic);
        let port = fabric.attach_host(node, rnic.clone() as Rc<dyn NicSink>);
        *rnic.port.borrow_mut() = Some(port);
        *rnic.fabric.borrow_mut() = Some(fabric.clone());
        // Let the fault injector steer this node (crash/pause/QP error).
        #[cfg(feature = "faults")]
        {
            let weak = Rc::downgrade(&rnic);
            xrdma_faults::register_node(
                node.0,
                // xrdma-lint: allow(hot-path-alloc) -- one registration at NIC construction
                Box::new(move |cmd| {
                    if let Some(r) = weak.upgrade() {
                        r.fault_cmd(cmd);
                    }
                }),
            );
        }
        rnic
    }

    /// The fabric this NIC is attached to.
    pub fn fabric(&self) -> Rc<Fabric> {
        // xrdma-lint: allow(unwrap-in-api) -- set unconditionally in Rnic::new before the Rc escapes
        self.fabric.borrow().as_ref().expect("attached").clone()
    }

    /// The host uplink port (available after construction).
    pub fn port(&self) -> Rc<Port> {
        // xrdma-lint: allow(unwrap-in-api) -- set unconditionally in Rnic::new before the Rc escapes
        self.port.borrow().as_ref().expect("port installed").clone()
    }

    /// Register a handler for non-RDMA packets arriving at this host (the
    /// TCP model rides the same fabric attachment).
    pub fn set_alt_sink(&self, f: impl Fn(Packet) + 'static) {
        // xrdma-lint: allow(hot-path-alloc) -- sink installed once at setup
        *self.alt_sink.borrow_mut() = Some(Box::new(f));
    }

    /// Install a receive-side packet filter (fault injection). At most one
    /// filter is active; installing replaces the previous one.
    pub fn set_filter(&self, f: impl Fn(&Packet) -> FilterVerdict + 'static) {
        // xrdma-lint: allow(hot-path-alloc) -- filter installed once at setup
        *self.filter.borrow_mut() = Some(Box::new(f));
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn world(&self) -> &Rc<World> {
        &self.world
    }

    pub fn mem(&self) -> &MemTable {
        &self.mem
    }

    pub fn stats(&self) -> RnicStats {
        *self.stats.borrow()
    }

    pub fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// Simulate a machine crash: the NIC stops responding entirely. Peers
    /// only find out through their own timeouts (§III Robustness Issue 2).
    pub fn crash(&self) {
        self.alive.set(false);
    }

    /// Power the node back on with clean NIC state (QPs stay in ERROR /
    /// RESET; connections must be re-established).
    pub fn restart(&self) {
        self.alive.set(true);
        for qp in self.qps.borrow().iter().flatten() {
            qp.modify_to_reset();
        }
    }

    // ------------------------------------------------------------------
    // Verbs object management
    // ------------------------------------------------------------------

    pub fn alloc_pd(&self) -> Rc<Pd> {
        self.mem.alloc_pd()
    }

    /// Register RDMA-enabled memory. `backed` materializes real bytes,
    /// `high` places it in the isolated high address range (§VI-C).
    pub fn reg_mr(
        &self,
        pd: &Pd,
        len: u64,
        access: AccessFlags,
        kind: PageKind,
        backed: bool,
        high: bool,
    ) -> Rc<Mr> {
        self.mem.reg_mr(pd, len, access, kind, backed, high)
    }

    pub fn dereg_mr(&self, mr: &Rc<Mr>) {
        self.mem.dereg_mr(mr);
    }

    /// Host-side cost of registering `len` bytes in the given page mode
    /// (§VII-F memory-mode experiment). The middleware charges this to its
    /// CPU thread.
    ///
    /// Continuous allocations hunt for physically contiguous ranges: the
    /// cost grows with how much memory the host has already pinned (a
    /// fragmentation proxy) — on long-running servers this "will cause
    /// out-of-memory issue and trigger memory recycling in kernel" (§VII-F).
    pub fn reg_mr_cost(&self, len: u64, kind: PageKind) -> Dur {
        let pages = match kind {
            PageKind::Anonymous => len.div_ceil(4096),
            PageKind::Continuous => 1,
            PageKind::Huge => len.div_ceil(2 * 1024 * 1024),
        };
        let base = match kind {
            PageKind::Anonymous => Dur::micros(90),
            PageKind::Continuous => {
                // Fragmentation pressure: each pinned 64 MiB multiplies the
                // compaction/reclaim work.
                let pressure = 1.0 + self.mem.registered_bytes() as f64 / (64.0 * 1024.0 * 1024.0);
                Dur::secs_f64(260e-6 * pressure.min(40.0))
            }
            PageKind::Huge => Dur::micros(130),
        };
        base + Dur::nanos(220) * pages
    }

    pub fn create_cq(&self, depth: usize) -> Rc<CompletionQueue> {
        let id = self.next_cq.get();
        self.next_cq.set(id + 1);
        CompletionQueue::new(id, depth)
    }

    pub fn create_srq(&self, depth: usize) -> Rc<Srq> {
        let id = self.next_srq.get();
        self.next_srq.set(id + 1);
        Srq::new(id, depth)
    }

    pub fn create_qp(
        &self,
        pd: &Pd,
        send_cq: Rc<CompletionQueue>,
        recv_cq: Rc<CompletionQueue>,
        caps: QpCaps,
        srq: Option<Rc<Srq>>,
    ) -> Rc<Qp> {
        let qpn = Qpn(self.next_qpn.get());
        self.next_qpn.set(qpn.0 + 1);
        let qp = Qp::new(
            qpn,
            pd.id,
            caps,
            send_cq,
            recv_cq,
            srq,
            DcqcnRp::new(self.cfg.dcqcn),
        );
        let mut qps = self.qps.borrow_mut();
        let i = qpn.0 as usize;
        let len = qps.len().max(i + 1);
        qps.resize(len, None);
        qps[i] = Some(qp.clone());
        qp
    }

    pub fn destroy_qp(&self, qp: &Rc<Qp>) {
        qp.modify_to_reset();
        qp.send_cq.deregister_qp(qp.qpn);
        qp.recv_cq.deregister_qp(qp.qpn);
        if let Some(slot) = self.qps.borrow_mut().get_mut(qp.qpn.0 as usize) {
            *slot = None;
        }
    }

    pub fn qp(&self, qpn: Qpn) -> Option<Rc<Qp>> {
        self.qps.borrow().get(qpn.0 as usize)?.clone()
    }

    pub fn qp_count(&self) -> usize {
        self.qps.borrow().iter().flatten().count()
    }

    // ------------------------------------------------------------------
    // Posting
    // ------------------------------------------------------------------

    /// Post a send-queue work request.
    pub fn post_send(self: &Rc<Self>, qp: &Rc<Qp>, wr: SendWr) -> Result<(), VerbsError> {
        if !qp.can_send() {
            return Err(VerbsError::InvalidState("post_send requires RTS"));
        }
        wr.validate()?;
        span_mark!(wr.span, Doorbell);
        {
            let mut tx = qp.tx.borrow_mut();
            if tx.sq.len() >= qp.caps.max_send_wr {
                return Err(VerbsError::QueueFull);
            }
            tx.sq.push_back(wr);
        }
        self.activate(qp.qpn, Time::ZERO);
        {
            let mut st = self.stats.borrow_mut();
            st.doorbells += 1;
            st.posted_wrs += 1;
        }
        Ok(())
    }

    /// Post a chained list of send work requests, ringing one doorbell
    /// (`ibv_post_send` with a linked WR list). All-or-nothing: every WR is
    /// validated and the queue capacity checked before any is enqueued, so
    /// a rejected postlist leaves the send queue untouched.
    pub fn post_send_list(
        self: &Rc<Self>,
        qp: &Rc<Qp>,
        wrs: Vec<SendWr>,
    ) -> Result<(), VerbsError> {
        if wrs.is_empty() {
            return Ok(());
        }
        if !qp.can_send() {
            return Err(VerbsError::InvalidState("post_send requires RTS"));
        }
        SendWr::validate_all(&wrs)?;
        for _wr in &wrs {
            span_mark!(_wr.span, Doorbell);
        }
        {
            let mut tx = qp.tx.borrow_mut();
            if tx.sq.len() + wrs.len() > qp.caps.max_send_wr {
                return Err(VerbsError::QueueFull);
            }
            let n = wrs.len() as u64;
            tx.sq.extend(wrs);
            let mut st = self.stats.borrow_mut();
            st.doorbells += 1;
            st.posted_wrs += n;
        }
        self.activate(qp.qpn, Time::ZERO);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Injector
    // ------------------------------------------------------------------

    /// Mark a QP as having transmittable work no earlier than `not_before`
    /// (absolute; `Time::ZERO` = now).
    fn activate(self: &Rc<Self>, qpn: Qpn, not_before: Time) {
        {
            let mut inj = self.injector.borrow_mut();
            if inj.in_ready.contains(&qpn) {
                return;
            }
            if not_before > self.world.now() {
                if inj.in_throttled.insert(qpn) {
                    inj.throttled.push(Reverse((not_before, qpn.0)));
                }
            } else {
                inj.in_throttled.remove(&qpn);
                inj.in_ready.insert(qpn);
                inj.ready.push_back(qpn);
            }
        }
        self.arm_kick(Time::ZERO);
    }

    /// Schedule an injector pass (immediately or at `at`).
    fn arm_kick(self: &Rc<Self>, at: Time) {
        if self.injector.borrow().parked_on_port {
            return;
        }
        let mut timer = self.kick_timer.borrow_mut();
        let timer = timer.get_or_insert_with(|| {
            // Weak: the slab slot must not pin the RNIC in a cycle.
            let me = self.me.borrow().clone();
            self.world.timer(move || {
                if let Some(me) = me.upgrade() {
                    me.injector_pass();
                }
            })
        });
        if !timer.is_armed() {
            timer.arm_at(at.max(self.world.now()));
        }
    }

    /// One injector pass: drain ready QPs until the port fills, rate limits
    /// bite, or there is no work.
    fn injector_pass(self: &Rc<Self>) {
        if !self.alive.get() {
            return;
        }
        loop {
            let now = self.world.now();
            // Wake throttled QPs whose time has come.
            loop {
                let wake = {
                    let inj = self.injector.borrow();
                    match inj.throttled.peek() {
                        Some(&Reverse((t, q))) if t <= now => Some(Qpn(q)),
                        _ => None,
                    }
                };
                match wake {
                    Some(q) => {
                        let mut inj = self.injector.borrow_mut();
                        inj.throttled.pop();
                        if inj.in_throttled.remove(&q) && !inj.in_ready.contains(&q) {
                            inj.in_ready.insert(q);
                            inj.ready.push_back(q);
                        }
                    }
                    None => break,
                }
            }

            // Port backpressure.
            if self.port().total_queued() >= self.cfg.inject_limit_bytes {
                let me = self.clone();
                self.injector.borrow_mut().parked_on_port = true;
                let limit = self.cfg.inject_limit_bytes;
                self.port().arm_drain_hook(limit / 2, move || {
                    me.injector.borrow_mut().parked_on_port = false;
                    me.arm_kick(Time::ZERO);
                });
                return;
            }

            let popped = self.injector.borrow_mut().ready.pop_front();
            let qpn = match popped {
                Some(q) => q,
                None => {
                    // Nothing ready; wake at the earliest throttled QP.
                    let next = self
                        .injector
                        .borrow()
                        .throttled
                        .peek()
                        .map(|&Reverse((t, _))| t);
                    if let Some(t) = next {
                        self.arm_kick(t);
                    }
                    return;
                }
            };
            self.injector.borrow_mut().in_ready.remove(&qpn);

            let Some(qp) = self.qp(qpn) else { continue };
            match self.transmit_one(&qp) {
                TxOutcome::Sent => {
                    // Re-enqueue according to the new pacing deadline.
                    let t = qp.next_allowed.get();
                    if self.qp_has_tx_work(&qp) {
                        self.requeue(qpn, t);
                    }
                }
                TxOutcome::NotBefore(t) => self.requeue(qpn, t),
                TxOutcome::Idle => {}
            }
        }
    }

    fn requeue(self: &Rc<Self>, qpn: Qpn, not_before: Time) {
        let mut inj = self.injector.borrow_mut();
        if not_before > self.world.now() {
            if inj.in_throttled.insert(qpn) {
                inj.throttled.push(Reverse((not_before, qpn.0)));
            }
        } else if inj.in_ready.insert(qpn) {
            inj.ready.push_back(qpn);
        }
    }

    /// Does the QP have anything to put on the wire right now?
    fn qp_has_tx_work(&self, qp: &Rc<Qp>) -> bool {
        let tx = qp.tx.borrow();
        if !tx.resp.is_empty() || !tx.retx.is_empty() || tx.cur.is_some() {
            return true;
        }
        // Starting a new message requires window room.
        !tx.sq.is_empty() && self.window_room(&tx)
    }

    fn window_room(&self, tx: &crate::qp::TxState) -> bool {
        tx.unacked.len() + tx.pending_reads.len() + tx.pending_atomics.len()
            < self.cfg.max_inflight_msgs
    }

    /// Charge one QP-context fetch against the shared ICM/PCIe engine and
    /// return the delay this caller observes.
    ///
    /// A single fetch unit serves all QPs on the NIC, so concurrent misses
    /// queue behind each other: a lone miss still costs `qp_cache_miss`,
    /// but once the working set blows past the SRAM the fetch unit's
    /// *bandwidth* (1 / qp_cache_miss fetches per second) becomes the
    /// message-rate ceiling, which is the cliff the mux is built to avoid.
    fn charge_ctx_fetch(&self) -> Dur {
        let now = self.world.now();
        let free = self.ctx_fetch_free.get().max(now);
        let done = free + self.cfg.qp_cache_miss;
        self.ctx_fetch_free.set(done);
        done.since(now)
    }

    /// Transmit at most one segment for this QP.
    fn transmit_one(self: &Rc<Self>, qp: &Rc<Qp>) -> TxOutcome {
        if !qp.can_send() {
            return TxOutcome::Idle;
        }
        let now = self.world.now();
        let allowed = qp.next_allowed.get().max(qp.tx.borrow().backoff_until);
        if allowed > now {
            return TxOutcome::NotBefore(allowed);
        }

        // QP-context SRAM model: a cold QP pays the miss penalty once per
        // touch streak.
        let mut pipeline = Dur::ZERO;
        {
            let hit = self.qp_cache.borrow_mut().touch(qp.qpn.0);
            qp.note_ctx_cache(hit);
            let mut st = self.stats.borrow_mut();
            if hit {
                st.qp_cache_hits += 1;
            } else {
                st.qp_cache_misses += 1;
                drop(st);
                pipeline += self.charge_ctx_fetch();
            }
        }

        // Priority 1: responder jobs (read responses / atomic replies).
        if let Some(seg) = self.next_resp_segment(qp) {
            self.emit(qp, seg, pipeline);
            return TxOutcome::Sent;
        }
        // Priority 2: retransmissions.
        if qp.tx.borrow().retx.front().is_some() {
            let seg = self.next_msg_segment(qp, true);
            match seg {
                Some(seg) => {
                    self.emit(qp, seg, pipeline);
                    return TxOutcome::Sent;
                }
                None => return TxOutcome::Idle,
            }
        }
        // Priority 3: current / new messages.
        {
            let mut tx = qp.tx.borrow_mut();
            if tx.cur.is_none() {
                if tx.sq.is_empty() {
                    return TxOutcome::Idle;
                }
                if !self.window_room(&tx) {
                    // Window full: an ACK will re-activate us.
                    return TxOutcome::Idle;
                }
                let wr = tx.sq.pop_front().expect("checked non-empty");
                let seq = tx.next_seq;
                tx.next_seq += 1;
                tx.cur = Some(TxMsg {
                    wr,
                    seq,
                    sent_off: 0,
                    started: false,
                    retries: 0,
                    gather: None,
                });
            }
        }
        match self.next_msg_segment(qp, false) {
            Some(seg) => {
                self.emit(qp, seg, pipeline);
                TxOutcome::Sent
            }
            None => TxOutcome::Idle,
        }
    }

    /// Build the next fragment of the active (or retransmitting) message.
    fn next_msg_segment(self: &Rc<Self>, qp: &Rc<Qp>, retx: bool) -> Option<Seg> {
        let now = self.world.now();
        let mut tx = qp.tx.borrow_mut();
        let msg = if retx {
            tx.retx.front_mut()?
        } else {
            tx.cur.as_mut()?
        };
        let mut extra = Dur::ZERO;
        if !msg.started {
            msg.started = true;
            extra += self.cfg.wqe_process;
            // Retransmits reset `started`, so a replay re-enters the WQE
            // stage — the span's stage residencies accumulate per stage.
            span_mark!(msg.wr.span, Wqe);
        }
        let (remote_node, _remote_qpn) = qp.remote().expect("RTS implies remote");
        let dst_qpn = qp.remote().unwrap().1;
        let seq = msg.seq;

        // Read and atomic requests are single-packet.
        match &msg.wr.op {
            SendOp::Read => {
                let (raddr, rkey) = msg.wr.remote.unwrap();
                let len = msg.wr.payload.len();
                let wr = msg.wr.clone();
                if retx {
                    tx.retx.pop_front();
                } else {
                    tx.cur = None;
                }
                tx.pending_reads.entry(seq).or_insert(PendingRead {
                    wr_id: wr.wr_id,
                    local: wr.local.unwrap(),
                    remote: (raddr, rkey),
                    total: len,
                    received: 0,
                    issued_at: now,
                    retries: 0,
                    signaled: wr.signaled,
                });
                if let Some(p) = tx.pending_reads.get_mut(&seq) {
                    p.received = 0;
                    p.issued_at = now;
                }
                drop(tx);
                self.arm_retx_timer(qp);
                return Some(Seg {
                    bth: Bth::ReadReq {
                        dst_qpn,
                        src_qpn: qp.qpn,
                        msg_seq: seq,
                        remote_addr: raddr,
                        rkey,
                        len,
                    },
                    wire_payload: 16,
                    dst: remote_node,
                    extra,
                    prio: PRIO_RDMA,
                    span: SpanToken::NONE,
                });
            }
            SendOp::FetchAdd(operand) => {
                let (raddr, rkey) = msg.wr.remote.unwrap();
                let wr = msg.wr.clone();
                let operand = *operand;
                if retx {
                    tx.retx.pop_front();
                } else {
                    tx.cur = None;
                }
                tx.pending_atomics.insert(
                    seq,
                    PendingAtomic {
                        wr_id: wr.wr_id,
                        local: wr.local.unwrap(),
                        issued_at: now,
                        signaled: wr.signaled,
                    },
                );
                drop(tx);
                self.arm_retx_timer(qp);
                return Some(Seg {
                    bth: Bth::AtomicReq {
                        dst_qpn,
                        src_qpn: qp.qpn,
                        msg_seq: seq,
                        remote_addr: raddr,
                        rkey,
                        compare: None,
                        operand,
                    },
                    wire_payload: 28,
                    dst: remote_node,
                    extra,
                    prio: PRIO_RDMA,
                    span: SpanToken::NONE,
                });
            }
            SendOp::CompareSwap { expect, swap } => {
                let (raddr, rkey) = msg.wr.remote.unwrap();
                let wr = msg.wr.clone();
                let (expect, swap) = (*expect, *swap);
                if retx {
                    tx.retx.pop_front();
                } else {
                    tx.cur = None;
                }
                tx.pending_atomics.insert(
                    seq,
                    PendingAtomic {
                        wr_id: wr.wr_id,
                        local: wr.local.unwrap(),
                        issued_at: now,
                        signaled: wr.signaled,
                    },
                );
                drop(tx);
                self.arm_retx_timer(qp);
                return Some(Seg {
                    bth: Bth::AtomicReq {
                        dst_qpn,
                        src_qpn: qp.qpn,
                        msg_seq: seq,
                        remote_addr: raddr,
                        rkey,
                        compare: Some(expect),
                        operand: swap,
                    },
                    wire_payload: 28,
                    dst: remote_node,
                    extra,
                    prio: PRIO_RDMA,
                    span: SpanToken::NONE,
                });
            }
            SendOp::Send | SendOp::Write | SendOp::WriteImm => {}
        }

        // Streaming ops: take one MTU fragment.
        let total = msg.wr.payload.len();
        let off = msg.sent_off;
        let frag_len = ((total - off).min(self.cfg.mtu as u64)) as u32;
        let last = off + frag_len as u64 >= total;
        let data = match &msg.wr.payload {
            Payload::Zero(_) => FragData::Zero(frag_len),
            Payload::Inline(b) => {
                FragData::Bytes(b.slice(off as usize..(off + frag_len as u64) as usize))
            }
            Payload::Padded { head, total: _ } => {
                let hlen = head.len() as u64;
                if off < hlen {
                    let real_end = hlen.min(off + frag_len as u64);
                    FragData::Padded {
                        head: head.slice(off as usize..real_end as usize),
                        pad: frag_len - (real_end - off) as u32,
                    }
                } else {
                    FragData::Zero(frag_len)
                }
            }
            Payload::FromMr { addr, lkey, .. } => {
                // Local gather: resolve lkey and validate this fragment's
                // range per MTU (deregistration mid-message must fail on
                // the same fragment it used to), but copy the message out
                // of the MR only once — later fragments slice the shared
                // gather buffer instead of re-allocating.
                match self.mem.by_lkey(*lkey) {
                    Some(mr) => {
                        if mr.check(addr + off, frag_len as u64).is_err() {
                            drop(tx);
                            self.local_wr_failure(qp, retx);
                            return None;
                        }
                        if msg.gather.is_none() {
                            msg.gather = mr.read_bytes(*addr, total).ok();
                        }
                        match &msg.gather {
                            Some(g) => FragData::Bytes(
                                g.slice(off as usize..(off + frag_len as u64) as usize),
                            ),
                            // A WR whose full range is invalid but whose
                            // current fragment is fine keeps the old
                            // per-fragment copy, so failures still surface
                            // on the exact fragment that crosses the edge.
                            // xrdma-lint: allow(hot-path-alloc) -- rare partial-bounds fallback, not the steady-state path
                            None => FragData::Bytes(Bytes::from(
                                mr.read(addr + off, frag_len as u64)
                                    .expect("fragment range checked above"),
                            )),
                        }
                    }
                    None => {
                        drop(tx);
                        self.local_wr_failure(qp, retx);
                        return None;
                    }
                }
            }
        };
        let op = match msg.wr.op {
            SendOp::Send => WireOp::Send,
            SendOp::Write => WireOp::Write,
            SendOp::WriteImm => WireOp::WriteImm,
            _ => unreachable!(),
        };
        let bth = Bth::Data {
            dst_qpn,
            src_qpn: qp.qpn,
            msg_seq: seq,
            op,
            frag_off: off,
            total_len: total,
            last,
            remote: msg.wr.remote,
            imm: msg.wr.imm,
            data,
        };
        msg.sent_off = off + frag_len as u64;
        // Only the final fragment carries the span across the wire — one
        // hop/RX record per message, not per MTU fragment.
        let seg_span = if last { msg.wr.span } else { SpanToken::NONE };
        if last {
            // Message fully on the wire: move to the unacked window.
            let msg = if retx {
                tx.retx.pop_front().unwrap()
            } else {
                tx.cur.take().unwrap()
            };
            let retries = msg.retries;
            // On retransmit the entry may still exist; replace it.
            tx.unacked.retain(|u| u.seq != msg.seq);
            let pos = tx.unacked.partition_point(|u| u.seq < msg.seq);
            tx.unacked.insert(
                pos,
                UnackedMsg {
                    wr: msg.wr,
                    seq: msg.seq,
                    sent_at: now,
                    retries,
                },
            );
            drop(tx);
            self.arm_retx_timer(qp);
        }
        Some(Seg {
            bth,
            wire_payload: frag_len,
            dst: remote_node,
            extra,
            prio: PRIO_RDMA,
            span: seg_span,
        })
    }

    /// Build the next responder segment (read response / atomic reply).
    fn next_resp_segment(self: &Rc<Self>, qp: &Rc<Qp>) -> Option<Seg> {
        let (remote_node, remote_qpn) = qp.remote()?;
        let mut tx = qp.tx.borrow_mut();
        let job = tx.resp.front_mut()?;
        match job {
            RespJob::Atomic { req_seq, old_value } => {
                let bth = Bth::AtomicResp {
                    dst_qpn: remote_qpn,
                    msg_seq: *req_seq,
                    old_value: *old_value,
                };
                tx.resp.pop_front();
                Some(Seg {
                    bth,
                    wire_payload: 8,
                    dst: remote_node,
                    extra: Dur::ZERO,
                    prio: PRIO_RDMA,
                    span: SpanToken::NONE,
                })
            }
            RespJob::Read {
                req_seq,
                addr,
                len,
                sent_off,
                data,
            } => {
                let off = *sent_off;
                let frag_len = ((*len - off).min(self.cfg.mtu as u64)) as u32;
                let last = off + frag_len as u64 >= *len;
                let frag = match data {
                    // Zero-copy: each response fragment is a refcounted
                    // window into the buffer captured at accept time.
                    Some(bytes) => {
                        FragData::Bytes(bytes.slice(off as usize..(off + frag_len as u64) as usize))
                    }
                    None => FragData::Zero(frag_len),
                };
                let bth = Bth::ReadResp {
                    dst_qpn: remote_qpn,
                    msg_seq: *req_seq,
                    frag_off: off,
                    total_len: *len,
                    last,
                    data: frag,
                };
                let _ = addr;
                *sent_off = off + frag_len as u64;
                if last {
                    tx.resp.pop_front();
                }
                Some(Seg {
                    bth,
                    wire_payload: frag_len,
                    dst: remote_node,
                    extra: Dur::ZERO,
                    prio: PRIO_RDMA,
                    span: SpanToken::NONE,
                })
            }
        }
    }

    /// Put a segment on the wire and update pacing/accounting.
    fn emit(self: &Rc<Self>, qp: &Rc<Qp>, seg: Seg, pipeline: Dur) {
        let now = self.world.now();
        let wire_size = self.cfg.packet_size(seg.wire_payload);
        {
            let mut st = self.stats.borrow_mut();
            st.data_pkts_tx += 1;
            st.data_bytes_tx += seg.wire_payload as u64;
        }
        // DCQCN byte accounting + pacing.
        let rate = if self.cfg.dcqcn_enabled {
            let mut rp = qp.rp.borrow_mut();
            rp.on_bytes_sent(now, wire_size as u64);
            rp.rate_gbps()
        } else {
            qp.rp.borrow().rate_gbps()
        };
        let delay = pipeline + seg.extra;
        let pace = xrdma_sim::time::wire_time(wire_size as u64, rate);
        qp.next_allowed.set(now + delay + pace);

        let mut pkt = Packet::new(
            self.node,
            seg.dst,
            seg.prio,
            wire_size,
            qp.flow_hash(),
            // xrdma-lint: allow(hot-path-alloc) -- the one Box per packet: `Packet.body` is Box<dyn Any> by design
            Box::new(TokenedBth {
                token: qp.conn_token(),
                bth: seg.bth,
            }) as Box<dyn Any>,
        );
        pkt.span = seg.span;
        if delay == Dur::ZERO {
            // The WQE stage ends when the last fragment actually reaches
            // the wire, so pipeline/pacing delays land in `wqe`, not
            // `fabric`.
            span_mark!(pkt.span, Fabric);
            self.port().send(pkt);
        } else {
            let port = self.port();
            self.world.schedule_in(delay, move || {
                span_mark!(pkt.span, Fabric);
                port.send(pkt);
            });
        }
    }

    /// A local gather failure (bad lkey / bounds): complete the WR in error
    /// and move the QP to the error state, flushing outstanding work.
    fn local_wr_failure(self: &Rc<Self>, qp: &Rc<Qp>, retx: bool) {
        let msg = {
            let mut tx = qp.tx.borrow_mut();
            if retx {
                tx.retx.pop_front()
            } else {
                tx.cur.take()
            }
        };
        if let Some(msg) = msg {
            self.push_cqe(
                &qp.send_cq,
                Cqe {
                    wr_id: msg.wr.wr_id,
                    status: CqeStatus::RemoteAccessError,
                    opcode: op_to_cqe(&msg.wr.op),
                    byte_len: 0,
                    imm: None,
                    qpn: qp.qpn,
                    span: msg.wr.span,
                },
            );
        }
        self.fail_qp(qp, CqeStatus::WrFlushError);
    }

    // ------------------------------------------------------------------
    // Control-plane sends (bypass pacing; tiny packets)
    // ------------------------------------------------------------------

    fn send_ctrl(self: &Rc<Self>, qp: &Rc<Qp>, bth: Bth, wire_payload: u32, prio: u8) {
        let Some((remote_node, _)) = qp.remote() else {
            return;
        };
        let pkt = Packet::new(
            self.node,
            remote_node,
            prio,
            self.cfg.packet_size(wire_payload),
            qp.flow_hash(),
            // xrdma-lint: allow(hot-path-alloc) -- the one Box per packet: `Packet.body` is Box<dyn Any> by design
            Box::new(TokenedBth {
                token: qp.conn_token(),
                bth,
            }) as Box<dyn Any>,
        );
        self.port().send(pkt);
    }

    // ------------------------------------------------------------------
    // Retransmission machinery
    // ------------------------------------------------------------------

    fn arm_retx_timer(self: &Rc<Self>, qp: &Rc<Qp>) {
        let mut tx = qp.tx.borrow_mut();
        if tx.retx_timer.as_ref().is_some_and(|t| t.is_armed()) {
            return;
        }
        if tx.unacked.is_empty() && tx.pending_reads.is_empty() && tx.pending_atomics.is_empty() {
            return;
        }
        if tx.retx_timer.is_none() {
            // Weak on both: the slab slot must not pin the QP or RNIC.
            let me = self.me.borrow().clone();
            let q = Rc::downgrade(qp);
            tx.retx_timer = Some(self.world.timer(move || {
                if let (Some(me), Some(q)) = (me.upgrade(), q.upgrade()) {
                    me.retx_timer_fired(&q);
                }
            }));
        }
        let timeout = self.cfg.retx_timeout;
        tx.retx_timer
            .as_ref()
            .expect("just installed")
            .arm_in(timeout);
    }

    fn retx_timer_fired(self: &Rc<Self>, qp: &Rc<Qp>) {
        if !self.alive.get() || !qp.can_send() {
            return;
        }
        let now = self.world.now();
        let timeout = self.cfg.retx_timeout;
        let oldest = {
            let tx = qp.tx.borrow();
            let a = tx.unacked.front().map(|u| u.sent_at);
            let b = tx.pending_reads.values().map(|p| p.issued_at).min();
            let c = tx.pending_atomics.values().map(|p| p.issued_at).min();
            [a, b, c].into_iter().flatten().min()
        };
        let Some(oldest) = oldest else { return };
        if now.since(oldest) >= timeout {
            self.go_back_retransmit(qp, None, false);
        }
        self.arm_retx_timer(qp);
    }

    /// Go-back-N: replay unacked messages (and reissue pending reads /
    /// atomics). `from_seq` limits the rollback start (NAK case); `rnr`
    /// marks this as receiver-not-ready (affects counters/backoff).
    fn go_back_retransmit(self: &Rc<Self>, qp: &Rc<Qp>, from_seq: Option<u64>, rnr: bool) {
        let now = self.world.now();
        let exceeded = {
            let mut tx = qp.tx.borrow_mut();
            let start = from_seq.unwrap_or(0);

            // Replay queue: unacked (>= start) in order, then the partially
            // sent current message, then anything already queued for retx.
            let mut replay: VecDeque<TxMsg> = VecDeque::new();
            let mut exceeded = false;
            let mut kept: VecDeque<UnackedMsg> = VecDeque::new();
            // Only the *head* of the rollback charges its retry budget —
            // like real RC, which counts retries per stalled PSN, not per
            // message swept up in the go-back. Later messages replay for
            // free; they were collateral, not the cause.
            let mut head_charged = false;
            while let Some(mut u) = tx.unacked.pop_front() {
                if u.seq < start {
                    kept.push_back(u);
                    continue;
                }
                if !head_charged {
                    head_charged = true;
                    u.retries += 1;
                    if u.retries > self.cfg.retry_count {
                        exceeded = true;
                    }
                }
                replay.push_back(TxMsg {
                    wr: u.wr.clone(),
                    seq: u.seq,
                    sent_off: 0,
                    started: false,
                    retries: u.retries,
                    gather: None,
                });
                // Keep window entry out; it is re-inserted when resent.
            }
            tx.unacked = kept;
            if let Some(mut cur) = tx.cur.take() {
                cur.sent_off = 0;
                cur.started = false;
                if !head_charged {
                    head_charged = true;
                    cur.retries += 1;
                    if cur.retries > self.cfg.retry_count {
                        exceeded = true;
                    }
                }
                replay.push_back(cur);
            }
            let old_retx = std::mem::take(&mut tx.retx);
            for m in old_retx {
                if replay.iter().all(|r| r.seq != m.seq) {
                    replay.push_back(m);
                }
            }
            // Reissue pending reads / atomics that fall in the replayed
            // range (their requests or responses may have been lost).
            let mut read_seqs: Vec<u64> = tx
                .pending_reads
                .iter()
                .filter(|(s, p)| **s >= start && now.since(p.issued_at) >= Dur::ZERO)
                .map(|(s, _)| *s)
                .collect();
            read_seqs.sort_unstable();
            for s in read_seqs {
                let p = tx.pending_reads.get_mut(&s).unwrap();
                if !head_charged {
                    head_charged = true;
                    p.retries += 1;
                    if p.retries > self.cfg.retry_count {
                        exceeded = true;
                    }
                }
                if replay.iter().all(|r| r.seq != s) {
                    replay.push_back(TxMsg {
                        wr: SendWr {
                            wr_id: p.wr_id,
                            op: SendOp::Read,
                            payload: Payload::Zero(p.total),
                            remote: Some(p.remote),
                            imm: None,
                            local: Some(p.local),
                            signaled: p.signaled,
                            span: SpanToken::NONE,
                        },
                        seq: s,
                        sent_off: 0,
                        started: false,
                        retries: p.retries,
                        gather: None,
                    });
                }
            }
            replay.make_contiguous().sort_by_key(|m| m.seq);
            let n = replay.len() as u64;
            tx.retx = replay;
            if rnr {
                tx.backoff_until = now + self.cfg.rnr_timer;
            }
            qp.retransmissions.set(qp.retransmissions.get() + n);
            self.stats.borrow_mut().retransmissions += n;
            tele!(Retransmit {
                node: self.node.0,
                qpn: qp.qpn.0,
                msgs: n,
            });
            exceeded
        };
        if exceeded {
            let status = if rnr {
                CqeStatus::RnrRetryExceeded
            } else {
                CqeStatus::RetryExceeded
            };
            self.fail_qp(qp, status);
            return;
        }
        let wake = qp.tx.borrow().backoff_until;
        self.activate(qp.qpn, wake);
    }

    /// Raise a CQE. Every completion the engine generates funnels through
    /// here so the `CqeDelay` fault (an RNIC stall, §III robustness) can
    /// hold it back; without an open fault window this is a plain push.
    fn push_cqe(&self, cq: &Rc<CompletionQueue>, cqe: Cqe) {
        #[cfg(feature = "faults")]
        if let Some(d) = xrdma_faults::cqe_delay(self.node.0) {
            let cq = cq.clone();
            self.world.schedule_in(d, move || cq.push(cqe));
            return;
        }
        cq.push(cqe);
    }

    /// React to a fault-injector node command (registered in `Rnic::new`).
    #[cfg(feature = "faults")]
    fn fault_cmd(self: &Rc<Self>, cmd: xrdma_faults::NodeCmd) {
        use xrdma_faults::NodeCmd;
        match cmd {
            NodeCmd::Crash => self.crash(),
            NodeCmd::Restart => self.restart(),
            // Pausing needs no action here: `deliver` checks the injector's
            // pause state and buffers arrivals into `paused_rx`.
            NodeCmd::Pause => {}
            NodeCmd::Resume => {
                let held = std::mem::take(&mut *self.paused_rx.borrow_mut());
                for pkt in held {
                    self.deliver_filtered(pkt);
                }
            }
            NodeCmd::QpError => {
                let rts: Vec<Rc<Qp>> = self
                    .qps
                    .borrow()
                    .iter()
                    .flatten()
                    .filter(|qp| qp.state() == crate::qp::QpState::Rts)
                    .cloned()
                    .collect();
                for qp in rts {
                    self.fail_qp(&qp, CqeStatus::WrFlushError);
                }
            }
        }
    }

    /// Move the QP to the error state and flush everything with error CQEs.
    fn fail_qp(self: &Rc<Self>, qp: &Rc<Qp>, head_status: CqeStatus) {
        qp.set_error();
        let mut first = true;
        let mut tx = qp.tx.borrow_mut();
        let mut complete = |wr_id: u64, op: CqeOpcode| {
            let status = if first {
                first = false;
                head_status
            } else {
                CqeStatus::WrFlushError
            };
            self.push_cqe(
                &qp.send_cq,
                Cqe {
                    wr_id,
                    status,
                    opcode: op,
                    byte_len: 0,
                    imm: None,
                    qpn: qp.qpn,
                    span: SpanToken::NONE,
                },
            );
        };
        let retx = std::mem::take(&mut tx.retx);
        for m in retx {
            complete(m.wr.wr_id, op_to_cqe(&m.wr.op));
        }
        let unacked = std::mem::take(&mut tx.unacked);
        for u in unacked {
            complete(u.wr.wr_id, op_to_cqe(&u.wr.op));
        }
        if let Some(c) = tx.cur.take() {
            complete(c.wr.wr_id, op_to_cqe(&c.wr.op));
        }
        let sq = std::mem::take(&mut tx.sq);
        for w in sq {
            complete(w.wr_id, op_to_cqe(&w.op));
        }
        // Flush in issue order, not bucket order.
        let mut reads: Vec<_> = std::mem::take(&mut tx.pending_reads).into_iter().collect();
        reads.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, p) in reads {
            complete(p.wr_id, CqeOpcode::Read);
        }
        let mut atomics: Vec<_> = std::mem::take(&mut tx.pending_atomics)
            .into_iter()
            .collect();
        atomics.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, p) in atomics {
            complete(p.wr_id, CqeOpcode::Atomic);
        }
        drop(tx);
        // Flush posted receives too.
        let mut rx = qp.rx.borrow_mut();
        let rq = std::mem::take(&mut rx.rq);
        for r in rq {
            self.push_cqe(
                &qp.recv_cq,
                Cqe {
                    wr_id: r.wr_id,
                    status: CqeStatus::WrFlushError,
                    opcode: CqeOpcode::Recv,
                    byte_len: 0,
                    imm: None,
                    qpn: qp.qpn,
                    span: SpanToken::NONE,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // DCQCN timers
    // ------------------------------------------------------------------

    fn mark_congested(self: &Rc<Self>, qpn: Qpn) {
        self.congested.borrow_mut().insert(qpn);
        if !self.dcqcn_timer_armed() {
            if self.dcqcn_timer.borrow().is_none() {
                // Weak: the slab slot must not pin the RNIC in a cycle.
                let me = self.me.borrow().clone();
                *self.dcqcn_timer.borrow_mut() = Some(self.world.timer(move || {
                    if let Some(me) = me.upgrade() {
                        me.dcqcn_tick();
                    }
                }));
            }
            self.dcqcn_timer
                .borrow()
                .as_ref()
                .expect("just installed")
                .arm_in(self.cfg.dcqcn.alpha_timer);
        }
    }

    fn dcqcn_timer_armed(&self) -> bool {
        self.dcqcn_timer
            .borrow()
            .as_ref()
            .is_some_and(|t| t.is_armed())
    }

    fn dcqcn_tick(self: &Rc<Self>) {
        if !self.alive.get() {
            return;
        }
        let now = self.world.now();
        let line = self.cfg.dcqcn.line_rate_gbps;
        let mut recovered = Vec::new();
        {
            let congested = self.congested.borrow();
            for &qpn in congested.iter() {
                if let Some(qp) = self.qp(qpn) {
                    let mut rp = qp.rp.borrow_mut();
                    rp.on_timer(now);
                    if rp.recovered(line) {
                        recovered.push(qpn);
                    }
                } else {
                    recovered.push(qpn);
                }
            }
        }
        {
            let mut congested = self.congested.borrow_mut();
            for q in recovered {
                congested.remove(&q);
            }
            if !congested.is_empty() {
                self.dcqcn_timer
                    .borrow()
                    .as_ref()
                    .expect("tick fired from this timer")
                    .arm_in(self.cfg.dcqcn.alpha_timer);
            }
        }
        // Rate changes may unblock pacing earlier than previously computed;
        // a kick is cheap.
        self.arm_kick(Time::ZERO);
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Serialize receive-side processing per QP and apply rx latency.
    ///
    /// Cache-miss penalties vary packet to packet, so per-QP handling is
    /// pinned monotone via `rx_ready` to keep the request stream in order.
    fn rx_process(self: &Rc<Self>, qp: Rc<Qp>, f: impl FnOnce(&Rc<Rnic>, &Rc<Qp>) + 'static) {
        let miss = {
            let hit = self.qp_cache.borrow_mut().touch(qp.qpn.0);
            qp.note_ctx_cache(hit);
            let mut st = self.stats.borrow_mut();
            if hit {
                st.qp_cache_hits += 1;
                Dur::ZERO
            } else {
                st.qp_cache_misses += 1;
                drop(st);
                self.charge_ctx_fetch()
            }
        };
        let at = (self.world.now() + self.cfg.rx_process + miss).max(qp.rx_ready.get());
        qp.rx_ready.set(at);
        let me = self.clone();
        self.world.schedule_at(at, move || {
            f(&me, &qp);
        });
    }

    fn handle_data(
        self: &Rc<Self>,
        qp: &Rc<Qp>,
        msg_seq: u64,
        op: WireOp,
        frag_off: u64,
        total_len: u64,
        last: bool,
        remote: Option<(u64, u32)>,
        imm: Option<u32>,
        data: FragData,
        span: SpanToken,
    ) {
        if !qp.can_recv() {
            return;
        }
        {
            let mut st = self.stats.borrow_mut();
            st.data_pkts_rx += 1;
            st.data_bytes_rx += data.len() as u64;
        }
        let next = qp.rx.borrow().next_deliver;
        if msg_seq < next {
            // Duplicate of an already-accepted message: re-ACK so the
            // sender's window can advance.
            if last {
                self.send_ack(qp);
            }
            return;
        }
        if msg_seq > next {
            // Gap (a loss upstream, e.g. injected by the Filter).
            let awaiting = qp.rx.borrow().awaiting_retx;
            if !awaiting {
                qp.rx.borrow_mut().awaiting_retx = true;
                qp.rx.borrow_mut().cur = None;
                self.stats.borrow_mut().seq_naks += 1;
                self.send_ctrl(
                    qp,
                    Bth::Nak {
                        dst_qpn: qp.remote().unwrap().1,
                        expected_seq: next,
                        kind: NakKind::SeqError,
                    },
                    4,
                    PRIO_RDMA,
                );
            }
            return;
        }

        // msg_seq == next_deliver.
        if frag_off == 0 {
            qp.rx.borrow_mut().awaiting_retx = false;
            let needs_rqe = matches!(op, WireOp::Send | WireOp::WriteImm);
            let rqe = if needs_rqe {
                match qp.take_rqe() {
                    Some(r) => {
                        // Only Send places payload in the RQE buffer; a
                        // WriteImm targets the remote address instead, so
                        // the RQE length is irrelevant there.
                        if op == WireOp::Send && r.len < total_len {
                            // Local length error at responder: fatal.
                            self.send_ctrl(
                                qp,
                                Bth::Nak {
                                    dst_qpn: qp.remote().unwrap().1,
                                    expected_seq: msg_seq,
                                    kind: NakKind::RemoteAccess,
                                },
                                4,
                                PRIO_RDMA,
                            );
                            return;
                        }
                        Some(r)
                    }
                    None => {
                        // Receiver not ready.
                        self.stats.borrow_mut().rnr_naks_sent += 1;
                        qp.rx.borrow_mut().awaiting_retx = true;
                        self.send_ctrl(
                            qp,
                            Bth::Nak {
                                dst_qpn: qp.remote().unwrap().1,
                                expected_seq: msg_seq,
                                kind: NakKind::Rnr,
                            },
                            4,
                            PRIO_RDMA,
                        );
                        return;
                    }
                }
            } else {
                None
            };
            qp.rx.borrow_mut().cur = Some(RxMsg {
                seq: msg_seq,
                received: 0,
                total: total_len,
                rqe,
            });
        } else {
            // Continuation fragment must match the assembly in progress.
            let ok = {
                let rx = qp.rx.borrow();
                match &rx.cur {
                    Some(c) => c.seq == msg_seq && c.received == frag_off && !rx.awaiting_retx,
                    None => false,
                }
            };
            if !ok {
                return; // mid-retransmit noise; the NAK machinery recovers.
            }
        }

        // Data placement.
        let frag_len = data.len() as u64;
        let place_err = match op {
            WireOp::Write | WireOp::WriteImm => {
                if total_len == 0 {
                    // Zero-byte probe (keepalive): nothing to place.
                    None
                } else {
                    let (addr, rkey) = remote.expect("validated at post");
                    match self
                        .mem
                        .resolve_remote(rkey, addr + frag_off, frag_len, true, false)
                    {
                        Ok(mr) => {
                            let miss = !self.mr_cache.borrow_mut().touch(rkey);
                            if miss {
                                self.stats.borrow_mut().mr_cache_misses += 1;
                            }
                            match &data {
                                FragData::Bytes(b) => mr.write(addr + frag_off, b).err(),
                                FragData::Padded { head, .. } => {
                                    mr.write(addr + frag_off, head).err()
                                }
                                FragData::Zero(_) => None,
                            }
                        }
                        Err(e) => Some(e),
                    }
                }
            }
            WireOp::Send => {
                let rx = qp.rx.borrow();
                let rqe = rx.cur.as_ref().and_then(|c| c.rqe.clone());
                drop(rx);
                match rqe {
                    Some(r) => {
                        let real: Option<&Bytes> = match &data {
                            FragData::Bytes(b) => Some(b),
                            FragData::Padded { head, .. } => Some(head),
                            FragData::Zero(_) => None,
                        };
                        match real {
                            Some(b) => match self.mem.by_lkey(r.lkey) {
                                Some(mr) => mr.write(r.addr + frag_off, b).err(),
                                // Unbacked receive buffers are allowed in
                                // size-only mode.
                                None => None,
                            },
                            None => None,
                        }
                    }
                    None => None,
                }
            }
        };
        if place_err.is_some() {
            self.send_ctrl(
                qp,
                Bth::Nak {
                    dst_qpn: qp.remote().unwrap().1,
                    expected_seq: msg_seq,
                    kind: NakKind::RemoteAccess,
                },
                4,
                PRIO_RDMA,
            );
            qp.rx.borrow_mut().cur = None;
            return;
        }

        let mut completed = false;
        {
            let mut rx = qp.rx.borrow_mut();
            if let Some(cur) = rx.cur.as_mut() {
                cur.received += frag_len;
                if last {
                    completed = true;
                }
            }
        }
        if completed {
            let cur = qp.rx.borrow_mut().cur.take().unwrap();
            {
                let mut rx = qp.rx.borrow_mut();
                rx.next_deliver += 1;
                rx.unacked_count += 1;
            }
            if let Some(rqe) = cur.rqe {
                let opcode = if op == WireOp::WriteImm {
                    CqeOpcode::RecvWriteImm
                } else {
                    CqeOpcode::Recv
                };
                // Marked before push so a fault-injected CQE stall
                // (`CqeDelay`) is attributed to the `cqe` stage.
                span_mark!(span, Cqe);
                self.push_cqe(
                    &qp.recv_cq,
                    Cqe {
                        wr_id: rqe.wr_id,
                        status: CqeStatus::Success,
                        opcode,
                        byte_len: total_len,
                        imm,
                        qpn: qp.qpn,
                        span,
                    },
                );
            }
            self.send_ack(qp);
        }
    }

    fn send_ack(self: &Rc<Self>, qp: &Rc<Qp>) {
        let acked = {
            let mut rx = qp.rx.borrow_mut();
            rx.unacked_count = 0;
            rx.next_deliver.wrapping_sub(1)
        };
        self.send_ctrl(
            qp,
            Bth::Ack {
                dst_qpn: qp.remote().unwrap().1,
                msg_seq: acked,
            },
            4,
            PRIO_RDMA,
        );
    }

    fn handle_ack(self: &Rc<Self>, qp: &Rc<Qp>, msg_seq: u64) {
        let completions = {
            let mut tx = qp.tx.borrow_mut();
            let mut out = Vec::new();
            while let Some(front) = tx.unacked.front() {
                if front.seq <= msg_seq {
                    let u = tx.unacked.pop_front().unwrap();
                    if u.wr.signaled {
                        out.push((u.wr.wr_id, op_to_cqe(&u.wr.op), u.wr.payload.len()));
                    }
                } else {
                    break;
                }
            }
            // Drop replay entries that are now acknowledged.
            tx.retx.retain(|m| m.seq > msg_seq);
            out
        };
        for (wr_id, opcode, byte_len) in completions {
            self.push_cqe(
                &qp.send_cq,
                Cqe {
                    wr_id,
                    status: CqeStatus::Success,
                    opcode,
                    byte_len,
                    imm: None,
                    qpn: qp.qpn,
                    span: SpanToken::NONE,
                },
            );
        }
        // Window may have opened.
        if self.qp_has_tx_work(qp) {
            self.activate(qp.qpn, Time::ZERO);
        }
        self.arm_retx_timer(qp);
    }

    fn handle_nak(self: &Rc<Self>, qp: &Rc<Qp>, expected_seq: u64, kind: NakKind) {
        match kind {
            NakKind::Rnr => {
                qp.rnr_events.set(qp.rnr_events.get() + 1);
                self.stats.borrow_mut().rnr_naks_received += 1;
                tele!(Rnr {
                    node: self.node.0,
                    qpn: qp.qpn.0,
                });
                // Everything below expected_seq is implicitly acked.
                if expected_seq > 0 {
                    self.handle_ack(qp, expected_seq - 1);
                }
                self.go_back_retransmit(qp, Some(expected_seq), true);
            }
            NakKind::SeqError => {
                if expected_seq > 0 {
                    self.handle_ack(qp, expected_seq - 1);
                }
                self.go_back_retransmit(qp, Some(expected_seq), false);
            }
            NakKind::RemoteAccess => {
                // Complete the offending WR with an error and kill the QP.
                let head = {
                    let mut tx = qp.tx.borrow_mut();
                    let pos = tx.unacked.iter().position(|u| u.seq == expected_seq);
                    pos.map(|i| tx.unacked.remove(i).unwrap())
                };
                if let Some(u) = head {
                    self.push_cqe(
                        &qp.send_cq,
                        Cqe {
                            wr_id: u.wr.wr_id,
                            status: CqeStatus::RemoteAccessError,
                            opcode: op_to_cqe(&u.wr.op),
                            byte_len: 0,
                            imm: None,
                            qpn: qp.qpn,
                            span: u.wr.span,
                        },
                    );
                }
                self.fail_qp(qp, CqeStatus::WrFlushError);
            }
        }
    }

    fn handle_read_req(
        self: &Rc<Self>,
        qp: &Rc<Qp>,
        msg_seq: u64,
        remote_addr: u64,
        rkey: u32,
        len: u64,
    ) {
        if !qp.can_recv() {
            return;
        }
        let next = qp.rx.borrow().next_deliver;
        if msg_seq == next {
            qp.rx.borrow_mut().next_deliver += 1;
            qp.rx.borrow_mut().awaiting_retx = false;
        } else if msg_seq > next {
            // Lost something before this read; ask for replay.
            self.send_ctrl(
                qp,
                Bth::Nak {
                    dst_qpn: qp.remote().unwrap().1,
                    expected_seq: next,
                    kind: NakKind::SeqError,
                },
                4,
                PRIO_RDMA,
            );
            return;
        }
        // msg_seq <= next: (re-)execute — reads are idempotent.
        match self
            .mem
            .resolve_remote(rkey, remote_addr, len, false, false)
        {
            Ok(mr) => {
                let miss = !self.mr_cache.borrow_mut().touch(rkey);
                if miss {
                    self.stats.borrow_mut().mr_cache_misses += 1;
                }
                // Stream Zero fragments unless real bytes were actually
                // written into the source range (size-only fast path).
                let data = if mr.has_data_in(remote_addr, len) {
                    mr.read_bytes(remote_addr, len).ok()
                } else {
                    None
                };
                qp.tx.borrow_mut().resp.push_back(RespJob::Read {
                    req_seq: msg_seq,
                    addr: remote_addr,
                    len,
                    sent_off: 0,
                    data,
                });
                self.activate(qp.qpn, Time::ZERO);
            }
            Err(_) => {
                self.send_ctrl(
                    qp,
                    Bth::Nak {
                        dst_qpn: qp.remote().unwrap().1,
                        expected_seq: msg_seq,
                        kind: NakKind::RemoteAccess,
                    },
                    4,
                    PRIO_RDMA,
                );
            }
        }
    }

    fn handle_atomic_req(
        self: &Rc<Self>,
        qp: &Rc<Qp>,
        msg_seq: u64,
        remote_addr: u64,
        rkey: u32,
        compare: Option<u64>,
        operand: u64,
    ) {
        if !qp.can_recv() {
            return;
        }
        let next = qp.rx.borrow().next_deliver;
        if msg_seq == next {
            qp.rx.borrow_mut().next_deliver += 1;
        } else if msg_seq > next {
            self.send_ctrl(
                qp,
                Bth::Nak {
                    dst_qpn: qp.remote().unwrap().1,
                    expected_seq: next,
                    kind: NakKind::SeqError,
                },
                4,
                PRIO_RDMA,
            );
            return;
        }
        match self.mem.resolve_remote(rkey, remote_addr, 8, false, true) {
            Ok(mr) => {
                let old = match compare {
                    Some(expect) => mr.compare_swap(remote_addr, expect, operand),
                    None => mr.fetch_add(remote_addr, operand),
                };
                match old {
                    Ok(old_value) => {
                        qp.tx.borrow_mut().resp.push_back(RespJob::Atomic {
                            req_seq: msg_seq,
                            old_value,
                        });
                        self.activate(qp.qpn, Time::ZERO);
                    }
                    Err(_) => self.send_ctrl(
                        qp,
                        Bth::Nak {
                            dst_qpn: qp.remote().unwrap().1,
                            expected_seq: msg_seq,
                            kind: NakKind::RemoteAccess,
                        },
                        4,
                        PRIO_RDMA,
                    ),
                }
            }
            Err(_) => self.send_ctrl(
                qp,
                Bth::Nak {
                    dst_qpn: qp.remote().unwrap().1,
                    expected_seq: msg_seq,
                    kind: NakKind::RemoteAccess,
                },
                4,
                PRIO_RDMA,
            ),
        }
    }

    fn handle_read_resp(
        self: &Rc<Self>,
        qp: &Rc<Qp>,
        msg_seq: u64,
        frag_off: u64,
        total_len: u64,
        last: bool,
        data: FragData,
    ) {
        {
            let mut st = self.stats.borrow_mut();
            st.data_pkts_rx += 1;
            st.data_bytes_rx += data.len() as u64;
        }
        let done = {
            let mut tx = qp.tx.borrow_mut();
            let Some(p) = tx.pending_reads.get_mut(&msg_seq) else {
                return; // stale response after completion
            };
            if p.received != frag_off {
                return; // out-of-phase duplicate; ignore
            }
            // Response data is progress: reset the retransmission clock so
            // a long (congested) read doesn't falsely time out mid-stream.
            p.issued_at = self.world.now();
            // Scatter into the local buffer when backed.
            let real: Option<&Bytes> = match &data {
                FragData::Bytes(b) => Some(b),
                FragData::Padded { head, .. } => Some(head),
                FragData::Zero(_) => None,
            };
            if let Some(b) = real {
                if let Some(mr) = self.mem.by_lkey(p.local.1) {
                    let _ = mr.write(p.local.0 + frag_off, b);
                }
            }
            p.received += data.len() as u64;
            debug_assert!(p.received <= total_len);
            if last {
                let p = tx.pending_reads.remove(&msg_seq).unwrap();
                Some(p)
            } else {
                None
            }
        };
        if let Some(p) = done {
            if p.signaled {
                self.push_cqe(
                    &qp.send_cq,
                    Cqe {
                        wr_id: p.wr_id,
                        status: CqeStatus::Success,
                        opcode: CqeOpcode::Read,
                        byte_len: p.total,
                        imm: None,
                        qpn: qp.qpn,
                        span: SpanToken::NONE,
                    },
                );
            }
            if self.qp_has_tx_work(qp) {
                self.activate(qp.qpn, Time::ZERO);
            }
        }
    }

    fn handle_atomic_resp(self: &Rc<Self>, qp: &Rc<Qp>, msg_seq: u64, old_value: u64) {
        let done = qp.tx.borrow_mut().pending_atomics.remove(&msg_seq);
        if let Some(p) = done {
            if let Some(mr) = self.mem.by_lkey(p.local.1) {
                let _ = mr.write(p.local.0, &old_value.to_le_bytes());
            }
            if p.signaled {
                self.push_cqe(
                    &qp.send_cq,
                    Cqe {
                        wr_id: p.wr_id,
                        status: CqeStatus::Success,
                        opcode: CqeOpcode::Atomic,
                        byte_len: 8,
                        imm: None,
                        qpn: qp.qpn,
                        span: SpanToken::NONE,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Helpers for bootstrap/tests
    // ------------------------------------------------------------------

    /// Wire two QPs on (possibly different) RNICs directly to each other,
    /// bypassing connection-establishment latency. Tests and the connection
    /// manager's final step both use this. Fails if either QP is not in
    /// RESET (e.g. already wired or in ERROR after a fault).
    pub fn connect_pair(
        a_nic: &Rc<Rnic>,
        a: &Rc<Qp>,
        b_nic: &Rc<Rnic>,
        b: &Rc<Qp>,
    ) -> Result<(), VerbsError> {
        a.modify_to_init()?;
        a.modify_to_rtr(b_nic.node(), b.qpn)?;
        a.modify_to_rts()?;
        b.modify_to_init()?;
        b.modify_to_rtr(a_nic.node(), a.qpn)?;
        b.modify_to_rts()?;
        // Agree on the connection token (negotiated starting PSN).
        let token = Self::derive_token(
            a_nic.world.now().nanos(),
            (a_nic.node().0 as u64) << 32 | a.qpn.0 as u64,
            (b_nic.node().0 as u64) << 32 | b.qpn.0 as u64,
        );
        a.set_conn_token(token);
        b.set_conn_token(token);
        Ok(())
    }

    /// Mix a unique per-connection token (exposed so the connection
    /// manager can do the same agreement).
    pub fn derive_token(now_ns: u64, a: u64, b: u64) -> u64 {
        let mut h = now_ns.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
            ^ a.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
            ^ b.rotate_left(29);
        h ^= h >> 31;
        h.wrapping_mul(0xC4CE_B9FE_1A85_EC53) | 1 // never 0 (reset value)
    }
}

/// Outcome of one transmit attempt.
enum TxOutcome {
    Sent,
    NotBefore(Time),
    Idle,
}

/// One segment ready for the wire.
struct Seg {
    bth: Bth,
    wire_payload: u32,
    dst: NodeId,
    extra: Dur,
    prio: u8,
    /// Span riding the last fragment of a message onto the wire (`NONE`
    /// for non-final fragments and control-plane segments).
    span: SpanToken,
}

fn op_to_cqe(op: &SendOp) -> CqeOpcode {
    match op {
        SendOp::Send => CqeOpcode::Send,
        SendOp::Write | SendOp::WriteImm => CqeOpcode::Write,
        SendOp::Read => CqeOpcode::Read,
        SendOp::FetchAdd(_) | SendOp::CompareSwap { .. } => CqeOpcode::Atomic,
    }
}

impl NicSink for Rnic {
    fn deliver(&self, pkt: Packet) {
        if !self.alive.get() {
            return;
        }
        let Some(me) = self.me.borrow().upgrade() else {
            return;
        };
        // Scheduled fault-plan hooks (`xrdma-faults`): a PeerPause window
        // freezes the node (arrivals buffered, replayed on resume); rx
        // faults model ICRC corruption (drop), NIC-level duplication and
        // reordering. All are recovered by the go-back-N protocol.
        #[cfg(feature = "faults")]
        {
            if xrdma_faults::node_paused(self.node.0) {
                self.paused_rx.borrow_mut().push_back(pkt);
                return;
            }
            match xrdma_faults::rnic_rx(self.node.0) {
                None => {}
                Some(xrdma_faults::RxFault::Drop { .. }) => {
                    self.stats.borrow_mut().fault_rx_drops += 1;
                    return;
                }
                Some(xrdma_faults::RxFault::Duplicate) => {
                    if let Some(tb) = pkt.body.downcast_ref::<TokenedBth>().cloned() {
                        let mut copy = Packet::new(
                            pkt.src,
                            pkt.dst,
                            pkt.prio,
                            pkt.size_bytes,
                            pkt.flow_hash,
                            // xrdma-lint: allow(hot-path-alloc) -- fault-injected duplicate, off the steady-state path
                            Box::new(tb),
                        );
                        copy.ecn_capable = pkt.ecn_capable;
                        copy.ecn_marked = pkt.ecn_marked;
                        copy.span = pkt.span;
                        copy.hop_started_ns = pkt.hop_started_ns;
                        self.stats.borrow_mut().fault_rx_dups += 1;
                        let me2 = me.clone();
                        self.world
                            .schedule_in(Dur::ZERO, move || me2.deliver_filtered(copy));
                    }
                }
                Some(xrdma_faults::RxFault::Delay(d)) => {
                    let me2 = me.clone();
                    self.world.schedule_in(d, move || me2.deliver_filtered(pkt));
                    return;
                }
            }
        }
        // Fault-injection filter (checked once; delayed packets re-enter
        // through deliver_filtered).
        let verdict = match self.filter.borrow().as_ref() {
            Some(f) => f(&pkt),
            None => FilterVerdict::Pass,
        };
        match verdict {
            FilterVerdict::Pass => {}
            FilterVerdict::Drop => {
                self.filtered_drops.set(self.filtered_drops.get() + 1);
                return;
            }
            FilterVerdict::Delay(d) => {
                self.filtered_delays.set(self.filtered_delays.get() + 1);
                let me2 = me.clone();
                self.world.schedule_in(d, move || {
                    me2.deliver_filtered(pkt);
                });
                return;
            }
        }
        me.deliver_filtered(pkt);
    }

    fn pfc_pause(&self, prio: u8, paused: bool) {
        if paused {
            self.stats.borrow_mut().pfc_pauses_seen += 1;
        }
        self.paused_prios.borrow_mut()[prio as usize] = paused;
    }
}

impl Rnic {
    /// Post-filter delivery path.
    fn deliver_filtered(self: &Rc<Self>, pkt: Packet) {
        let me = self.clone();
        let mut pkt = pkt;
        let span = pkt.span;
        let tb = match pkt.body.downcast::<TokenedBth>() {
            Ok(tb) => *tb,
            Err(other) => {
                // Not RDMA traffic: hand to the alternate sink (TCP model).
                pkt.body = other;
                if let Some(f) = self.alt_sink.borrow().as_ref() {
                    f(pkt);
                }
                return;
            }
        };
        let bth = tb.bth;
        let Some(qp) = me.qp(bth.dst_qpn()) else {
            return; // stale packet for a destroyed QP
        };
        if tb.token != qp.conn_token() {
            // A previous life of a recycled QP — the PSN-mismatch drop of
            // real RC.
            self.stats.borrow_mut().stale_drops += 1;
            return;
        }
        // DCQCN notification point: an ECN-marked data packet triggers a
        // CNP back to the sender (paced per QP).
        if pkt.ecn_marked && bth.is_data() {
            let fire = qp
                .np
                .borrow_mut()
                .should_send_cnp(me.world.now(), &me.cfg.dcqcn);
            if fire {
                if let Some((_, remote_qpn)) = qp.remote() {
                    me.stats.borrow_mut().cnps_sent += 1;
                    tele!(CnpGenerated {
                        node: me.node.0,
                        qpn: qp.qpn.0,
                    });
                    me.send_ctrl(
                        &qp,
                        Bth::Cnp {
                            dst_qpn: remote_qpn,
                        },
                        2,
                        PRIO_CTRL,
                    );
                }
            }
        }
        match bth {
            Bth::Data {
                msg_seq,
                op,
                frag_off,
                total_len,
                last,
                remote,
                imm,
                data,
                ..
            } => {
                if last {
                    // Wire transit ends here; RX-pipeline residency starts.
                    span_mark!(span, Rx);
                }
                me.rx_process(qp, move |nic, qp| {
                    nic.handle_data(
                        qp, msg_seq, op, frag_off, total_len, last, remote, imm, data, span,
                    );
                });
            }
            Bth::ReadReq {
                msg_seq,
                remote_addr,
                rkey,
                len,
                ..
            } => {
                me.rx_process(qp, move |nic, qp| {
                    nic.handle_read_req(qp, msg_seq, remote_addr, rkey, len);
                });
            }
            Bth::AtomicReq {
                msg_seq,
                remote_addr,
                rkey,
                compare,
                operand,
                ..
            } => {
                me.rx_process(qp, move |nic, qp| {
                    nic.handle_atomic_req(qp, msg_seq, remote_addr, rkey, compare, operand);
                });
            }
            Bth::Ack { msg_seq, .. } => me.handle_ack(&qp, msg_seq),
            Bth::Nak {
                expected_seq, kind, ..
            } => me.handle_nak(&qp, expected_seq, kind),
            Bth::ReadResp {
                msg_seq,
                frag_off,
                total_len,
                last,
                data,
                ..
            } => me.handle_read_resp(&qp, msg_seq, frag_off, total_len, last, data),
            Bth::AtomicResp {
                msg_seq, old_value, ..
            } => me.handle_atomic_resp(&qp, msg_seq, old_value),
            Bth::Cnp { .. } => {
                me.stats.borrow_mut().cnps_received += 1;
                if me.cfg.dcqcn_enabled {
                    qp.rp.borrow_mut().on_cnp(me.world.now());
                    me.mark_congested(qp.qpn);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::TouchCache;

    /// The QP-context cache's hit/miss trace must not depend on the map's
    /// hasher: capacity 4, 32 touches over 7 keys, pinned to the literal
    /// the SipHash-keyed parent produced.
    #[test]
    fn touch_cache_lru_trace_is_pinned() {
        let mut cache = TouchCache::new(4);
        let mut x = 12_345u32;
        let trace: String = (0..32)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                if cache.touch((x >> 16) % 7) {
                    'h'
                } else {
                    'm'
                }
            })
            .collect();
        assert_eq!(trace, "mhmhmmhmmmmhmhhhhmhmhhhhhhhmmhhh");
    }

    /// Compacting the order deque must not drop the least recently used
    /// key's live entry: after A, then B × 30 (enough to compact), a new
    /// key C evicts A, and B still hits.
    #[test]
    fn compaction_keeps_the_lru_entry_evictable() {
        let mut cache = TouchCache::new(2);
        assert!(!cache.touch(0xA));
        assert!(!cache.touch(0xB));
        for _ in 1..30 {
            assert!(cache.touch(0xB));
        }
        assert!(!cache.touch(0xC));
        assert!(cache.touch(0xB), "C must evict A, the LRU key, not B");
        assert!(!cache.touch(0xA), "A was evicted");
    }
}
