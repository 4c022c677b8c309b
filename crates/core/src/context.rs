//! `xrdma_context` — the per-thread root object (§IV-A/B).
//!
//! One context owns one simulated CPU thread, one PD, one shared CQ, the
//! memory cache, the QP cache and a per-context timer — all per-thread, no
//! cross-thread sharing, exactly the run-to-complete model of §IV-B. The
//! context's poll loop drives every channel's protocol machinery and
//! dispatches application handlers synchronously on the thread.

use std::cell::{Cell, Ref, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use xrdma_fabric::{Fabric, NodeId};
use xrdma_rnic::cq::CqeOpcode;
use xrdma_rnic::mem::Pd;
use xrdma_rnic::{CompletionQueue, ConnManager, Cqe, Qp, QpCaps, Rnic, RnicConfig, SendWr, Srq};
use xrdma_sim::stats::Histogram;
use xrdma_sim::{CpuThread, Dur, SimRng, Time, World};
use xrdma_telemetry::tele;

use crate::channel::{wr_tag, CloseReason, XrdmaChannel, TAG_READ};
use crate::config::{PollMode, XrdmaConfig, CPU_DOORBELL, CPU_POLL, HYBRID_WINDOW, WAKEUP_LATENCY};
use crate::error::XrdmaError;
use crate::memcache::{McBuf, MemCache};
use crate::qpcache::QpCache;
use crate::stats::ContextStats;

/// Emulated event descriptor (Table I: `get_event_fd`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XrdmaFd(pub u32);

/// A finished trace record (what `trace_request` returns, §VI-A).
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    pub trace_id: u64,
    pub rpc_id: u32,
    /// Requester clock at send.
    pub t1_ns: u64,
    /// Responder clock at request arrival (shipped back in the response).
    pub server_recv_ns: u64,
    /// Requester clock at response arrival.
    pub t3_ns: u64,
}

impl TraceRecord {
    /// Estimated request one-way latency given the known clock offset
    /// (T2 − T1 − Toff, §VI-A method I).
    pub fn request_oneway_ns(&self, offset_ns: i64) -> i64 {
        self.server_recv_ns as i64 - self.t1_ns as i64 - offset_ns
    }

    /// Full round-trip time as seen by the requester.
    pub fn rtt_ns(&self) -> u64 {
        self.t3_ns.saturating_sub(self.t1_ns)
    }
}

/// A slow-operation log line (§VI-A method III).
#[derive(Clone, Debug)]
pub struct SlowOp {
    pub at: Time,
    pub what: &'static str,
    pub took: Dur,
}

/// Instrumentation hooks the analysis framework attaches (crate
/// `xrdma-analysis`); all methods default to no-ops.
pub trait Instrument {
    fn on_poll_gap(&self, _at: Time, _gap: Dur) {}
    fn on_slow_op(&self, _op: &SlowOp) {}
    fn on_trace(&self, _rec: &TraceRecord) {}
    fn on_channel_closed(&self, _peer: NodeId, _reason: CloseReason) {}
    fn on_timer_tick(&self, _at: Time) {}
}

/// Flow-control shared state (§V-C queuing).
struct FlowState {
    outstanding: usize,
    queue: VecDeque<Box<dyn FnOnce()>>,
}

/// The per-thread middleware context.
pub struct XrdmaContext {
    world: Rc<World>,
    thread: Rc<CpuThread>,
    rnic: Rc<Rnic>,
    cm: Rc<ConnManager>,
    pd: Rc<Pd>,
    cq: Rc<CompletionQueue>,
    srq: Option<Rc<Srq>>,
    /// Shared receive slot pool (SRQ mode): one bounded set of buffers
    /// serves every QP in the pool, so receive memory scales with
    /// `srq_size`, not with the channel count (§IV-E at mux scale).
    /// Indexed by slot id, which is the receive wr_id.
    srq_slots: RefCell<Vec<McBuf>>,
    config: RefCell<XrdmaConfig>,
    memcache: MemCache,
    qpcache: QpCache,
    /// Open channels indexed by qpn, so index order is qpn order: the
    /// keepalive tick and `channels()` walk them in it.
    channels: RefCell<Vec<Option<Rc<XrdmaChannel>>>>,
    flow: RefCell<FlowState>,
    stats: RefCell<ContextStats>,
    rpc_latency: RefCell<Histogram>,
    /// Clock skew of this host relative to global virtual time (ns). The
    /// clock-sync service in the analysis crate estimates offsets between
    /// hosts; tests inject skew here.
    pub clock_skew_ns: Cell<i64>,
    next_trace: Cell<u64>,
    /// Ordered by trace_id: `all_traces` exports in that order.
    traces: RefCell<BTreeMap<u64, TraceRecord>>,
    slow_log: RefCell<Vec<SlowOp>>,
    instrument: RefCell<Option<Rc<dyn Instrument>>>,
    last_pump_end: Cell<Time>,
    /// When the oldest un-pumped completion became ready (poll-gap base).
    pump_requested_at: Cell<Option<Time>>,
    pump_scheduled: Cell<bool>,
    last_traffic: Cell<Time>,
    fd_readable_cb: RefCell<Option<Box<dyn Fn()>>>,
    timer_running: Cell<bool>,
    /// The keepalive/housekeeping tick timer: its closure is boxed once and
    /// re-armed from `tick` without further allocation.
    tick_timer: RefCell<Option<xrdma_sim::Timer>>,
    tick_count: Cell<u64>,
    /// Scratch CQE buffer reused by every `polling` call (the shared-CQ
    /// fast path drains into it without allocating).
    poll_buf: RefCell<Vec<Cqe>>,
    /// Scratch qpn list reused by every `polling` call to tally its CQE
    /// batch per channel.
    poll_qpns: RefCell<Vec<u32>>,
    /// Data WRs awaiting the next doorbell flush (doorbell coalescing).
    pending_doorbell: RefCell<Vec<(Rc<XrdmaChannel>, SendWr)>>,
    /// Whether a doorbell flush is queued on the thread.
    doorbell_armed: Cell<bool>,
    /// Flow-queued WRs whose slot was granted this quantum: they re-join
    /// the coalescing path instead of ringing one bell each.
    granted_doorbell: RefCell<Vec<(Rc<XrdmaChannel>, SendWr)>>,
    /// Whether a granted-WR flush is queued on the thread.
    granted_armed: Cell<bool>,
}

/// §VI-A method II edge rule: a poll gap is only a violation when it
/// *strictly exceeds* the warn cycle — completions that waited exactly one
/// cycle are healthy. Extracted so the boundary is unit-testable.
pub fn poll_gap_violates(gap: Dur, warn_cycle: Dur) -> bool {
    gap > warn_cycle
}

/// §VI-A method III edge rule, same strictness: an operation taking exactly
/// the threshold (including zero-length ops at a zero threshold) is not
/// slow.
pub fn slow_op_violates(took: Dur, threshold: Dur) -> bool {
    took > threshold
}

impl XrdmaContext {
    /// Create a context on an existing RNIC (several contexts may share
    /// one NIC — one per thread, as in production).
    pub fn new(
        rnic: &Rc<Rnic>,
        cm: &Rc<ConnManager>,
        config: XrdmaConfig,
        name: &str,
    ) -> Rc<XrdmaContext> {
        let world = rnic.world().clone();
        let thread = CpuThread::new(world.clone(), name.to_string());
        let pd = rnic.alloc_pd();
        let cq = rnic.create_cq(config.cq_size);
        let srq = if config.use_srq {
            Some(rnic.create_srq(config.srq_size))
        } else {
            None
        };
        let memcache = MemCache::new(
            rnic.clone(),
            pd.clone(),
            config.memcache,
            config.ibqp_alloc_type,
        );
        let caps = QpCaps {
            max_send_wr: config.cq_size,
            max_recv_wr: (config.inflight_depth + crate::channel::CTRL_SLACK) as usize + 4,
        };
        let qpcache = QpCache::new(
            rnic.clone(),
            pd.clone(),
            cq.clone(),
            srq.clone(),
            caps,
            config.qp_cache,
        );
        let ctx = Rc::new(XrdmaContext {
            world,
            thread,
            rnic: rnic.clone(),
            cm: cm.clone(),
            pd,
            cq,
            srq,
            srq_slots: RefCell::new(Vec::new()),
            config: RefCell::new(config),
            memcache,
            qpcache,
            channels: RefCell::new(Vec::new()),
            flow: RefCell::new(FlowState {
                outstanding: 0,
                queue: VecDeque::new(),
            }),
            stats: RefCell::new(ContextStats::default()),
            rpc_latency: RefCell::new(Histogram::new()),
            clock_skew_ns: Cell::new(0),
            next_trace: Cell::new(1),
            traces: RefCell::new(BTreeMap::new()),
            slow_log: RefCell::new(Vec::new()),
            instrument: RefCell::new(None),
            last_pump_end: Cell::new(Time::ZERO),
            pump_requested_at: Cell::new(None),
            pump_scheduled: Cell::new(false),
            last_traffic: Cell::new(Time::ZERO),
            fd_readable_cb: RefCell::new(None),
            timer_running: Cell::new(false),
            tick_timer: RefCell::new(None),
            tick_count: Cell::new(0),
            poll_buf: RefCell::new(Vec::new()),
            poll_qpns: RefCell::new(Vec::new()),
            pending_doorbell: RefCell::new(Vec::new()),
            doorbell_armed: Cell::new(false),
            granted_doorbell: RefCell::new(Vec::new()),
            granted_armed: Cell::new(false),
        });
        // Wire the completion channel into the poll loop.
        {
            let me = Rc::downgrade(&ctx);
            ctx.cq.set_notify(move || {
                if let Some(ctx) = me.upgrade() {
                    ctx.schedule_pump();
                }
            });
            ctx.cq.req_notify();
        }
        ctx.prepost_srq_slots();
        ctx.start_timer();
        ctx
    }

    /// SRQ mode: fill the shared receive queue once, at context setup.
    /// Channels skip their per-QP preposting; every consumed slot is
    /// reposted by the dispatch path, so the pool is a fixed rotation.
    fn prepost_srq_slots(self: &Rc<Self>) {
        let Some(srq) = self.srq.clone() else {
            return;
        };
        let n = self.config().srq_size;
        let slot_len = XrdmaChannel::recv_slot_len(self);
        for id in 0..n as u32 {
            let buf = self
                .memcache
                .alloc(slot_len)
                .expect("memcache must cover the shared receive pool");
            self.srq_slots.borrow_mut().push(buf);
            srq.post(xrdma_rnic::RecvWr::new(
                id as u64, buf.addr, buf.len, buf.lkey,
            ))
            .expect("SRQ sized for its own slot pool");
        }
        self.thread.charge(self.memcache.take_reg_cost());
    }

    /// Is receive buffering shared across the QP pool?
    pub fn has_srq(&self) -> bool {
        self.srq.is_some()
    }

    /// Occupancy of the shared receive queue `(posted, pool)` — the
    /// xr-stat QP-cache panel's SRQ column.
    pub fn srq_depth(&self) -> Option<(usize, usize)> {
        self.srq
            .as_ref()
            .map(|s| (s.len(), self.srq_slots.borrow().len()))
    }

    /// Resolve a shared receive slot by wr_id (SRQ mode only).
    pub(crate) fn srq_slot(&self, id: u32) -> Option<McBuf> {
        self.srq_slots.borrow().get(id as usize).copied()
    }

    /// Return a consumed shared slot to the SRQ rotation.
    pub(crate) fn repost_srq_slot(&self, id: u32) {
        let (Some(srq), Some(buf)) = (self.srq.as_ref(), self.srq_slot(id)) else {
            return;
        };
        let _ = srq.post(xrdma_rnic::RecvWr::new(
            id as u64, buf.addr, buf.len, buf.lkey,
        ));
    }

    /// Convenience: create the RNIC too (one context on a fresh node).
    pub fn on_new_node(
        fabric: &Rc<Fabric>,
        cm: &Rc<ConnManager>,
        node: NodeId,
        rnic_cfg: RnicConfig,
        config: XrdmaConfig,
        rng: &SimRng,
    ) -> Rc<XrdmaContext> {
        let rnic = Rnic::new(fabric, node, rnic_cfg, rng.fork_idx(node.0 as u64));
        XrdmaContext::new(&rnic, cm, config, &format!("xrdma-n{}", node.0))
    }

    // ------------------------------------------------------------------
    // Accessors used across the crate
    // ------------------------------------------------------------------

    pub fn world(&self) -> &Rc<World> {
        &self.world
    }

    pub fn thread(&self) -> &Rc<CpuThread> {
        &self.thread
    }

    pub fn rnic(&self) -> &Rc<Rnic> {
        &self.rnic
    }

    /// The context's shared completion queue. Exposed so the monitor can
    /// surface the raw CQ counters (polls / empty polls / notify fires) as
    /// gauges without the context re-counting them.
    pub fn cq(&self) -> &Rc<CompletionQueue> {
        &self.cq
    }

    pub fn node(&self) -> NodeId {
        self.rnic.node()
    }

    pub fn memcache(&self) -> &MemCache {
        &self.memcache
    }

    pub fn qpcache(&self) -> &QpCache {
        &self.qpcache
    }

    pub fn config(&self) -> Ref<'_, XrdmaConfig> {
        self.config.borrow()
    }

    /// Attach analysis-framework instrumentation.
    pub fn set_instrument(&self, i: Rc<dyn Instrument>) {
        *self.instrument.borrow_mut() = Some(i);
    }

    /// This host's local clock (global virtual time + skew).
    pub fn local_clock_ns(&self) -> u64 {
        self.local_clock_at(self.world.now())
    }

    pub fn local_clock_at(&self, t: Time) -> u64 {
        (t.nanos() as i64 + self.clock_skew_ns.get()).max(0) as u64
    }

    pub(crate) fn next_trace_id(&self) -> u64 {
        let id = self.next_trace.get();
        self.next_trace.set(id + 1);
        id
    }

    // ------------------------------------------------------------------
    // Table I: the eight major APIs
    // ------------------------------------------------------------------

    /// `xrdma_polling` — drain completions and run handlers. Returns the
    /// number of completion events processed.
    pub fn polling(self: &Rc<Self>, max: usize) -> usize {
        // Per-call cost of poll_cq, independent of how many CQEs it
        // drains — the overhead CQ batching amortizes.
        self.thread.charge(CPU_POLL);
        let mut buf = self.poll_buf.take();
        let n = self.cq.poll_cq(&mut buf, max);
        // Per-channel batch-size accounting (xr-stat's CQ-BATCH column).
        if n > 0 {
            let mut qpns = self.poll_qpns.borrow_mut();
            qpns.clear();
            qpns.extend(buf.iter().map(|cqe| cqe.qpn.0));
            qpns.sort_unstable();
            let channels = self.channels.borrow();
            for run in qpns.chunk_by(|a, b| a == b) {
                if let Some(Some(ch)) = channels.get(run[0] as usize) {
                    ch.cqe_batch.borrow_mut().record(run.len() as u64);
                }
            }
        }
        for cqe in buf.drain(..) {
            self.dispatch(cqe);
        }
        self.poll_buf.replace(buf);
        {
            let mut st = self.stats.borrow_mut();
            st.events_polled += n as u64;
            st.cq_polls += 1;
            if n == 0 {
                st.cq_empty_polls += 1;
            }
        }
        if self.cq.is_empty() {
            self.cq.req_notify();
        } else {
            self.schedule_pump();
        }
        n
    }

    /// `xrdma_get_event_fd` — the descriptor to select/poll/epoll on.
    pub fn get_event_fd(&self) -> XrdmaFd {
        XrdmaFd(self.cq.id)
    }

    /// Register interest in fd readability (the epoll registration).
    pub fn on_fd_readable(&self, f: impl Fn() + 'static) {
        *self.fd_readable_cb.borrow_mut() = Some(Box::new(f));
    }

    /// `xrdma_process_event` — handle events after an fd wakeup.
    pub fn process_event(self: &Rc<Self>, _fd: XrdmaFd) -> usize {
        self.polling(usize::MAX)
    }

    /// `xrdma_reg_mem` — register application memory for RDMA.
    pub fn reg_mem(&self, len: u64) -> crate::memcache::McBuf {
        let cfg = self.config();
        let mr = self.rnic.reg_mr(
            &self.pd,
            len,
            xrdma_rnic::AccessFlags::FULL,
            cfg.ibqp_alloc_type,
            true,
            false,
        );
        self.thread
            .charge(self.rnic.reg_mr_cost(len, cfg.ibqp_alloc_type));
        crate::memcache::McBuf {
            addr: mr.addr,
            len,
            lkey: mr.lkey,
            rkey: mr.rkey,
        }
    }

    /// `xrdma_dereg_mem`.
    pub fn dereg_mem(&self, buf: &crate::memcache::McBuf) {
        if let Some(mr) = self.rnic.mem().by_lkey(buf.lkey) {
            self.rnic.dereg_mr(&mr);
        }
    }

    /// `xrdma_set_flag` — online configuration change (Table III).
    pub fn set_flag(&self, key: &str, value: &str) -> Result<(), XrdmaError> {
        self.config.borrow_mut().set_flag(key, value)
    }

    /// `xrdma_trace_request` — fetch the trace record of a completed,
    /// traced RPC (req-rsp mode, §VI-A).
    pub fn trace_request(&self, trace_id: u64) -> Option<TraceRecord> {
        self.traces.borrow().get(&trace_id).copied()
    }

    /// All completed trace records (analysis-framework export).
    pub fn all_traces(&self) -> Vec<TraceRecord> {
        self.traces.borrow().values().copied().collect()
    }

    /// Slow-operation log (§VI-A method III).
    pub fn slow_log(&self) -> Vec<SlowOp> {
        self.slow_log.borrow().clone()
    }

    // ------------------------------------------------------------------
    // Connection management
    // ------------------------------------------------------------------

    /// Listen for inbound channels at `svc`; `on_channel` fires for each.
    pub fn listen(self: &Rc<Self>, svc: u16, on_channel: impl Fn(Rc<XrdmaChannel>) + 'static) {
        let me = Rc::downgrade(self);
        let me2 = Rc::downgrade(self);
        self.cm.listen(
            &self.rnic,
            svc,
            move || {
                // A dropped context declines instead of panicking; the
                // connecting side sees ConnectionRefused.
                let ctx = me.upgrade()?;
                let cached = ctx.qpcache.get();
                {
                    let mut st = ctx.stats.borrow_mut();
                    if cached.fresh {
                        st.qp_cache_misses += 1;
                    } else {
                        st.qp_cache_hits += 1;
                    }
                }
                Some((cached.qp, cached.fresh))
            },
            move |qp, peer| {
                let Some(ctx) = me2.upgrade() else { return };
                let ch = ctx.install_channel(qp, peer);
                on_channel(ch);
            },
        );
    }

    /// `xrdma_connect` — establish a channel to `(peer, svc)`.
    pub fn connect(
        self: &Rc<Self>,
        peer: NodeId,
        svc: u16,
        done: impl FnOnce(Result<Rc<XrdmaChannel>, XrdmaError>) + 'static,
    ) {
        let cached = self.qpcache.get();
        {
            let mut st = self.stats.borrow_mut();
            if cached.fresh {
                st.qp_cache_misses += 1;
            } else {
                st.qp_cache_hits += 1;
            }
        }
        let me = Rc::downgrade(self);
        let fresh = cached.fresh;
        self.cm
            .connect(&self.rnic, cached.qp, fresh, peer, svc, move |r| {
                let Some(ctx) = me.upgrade() else {
                    done(Err(XrdmaError::ChannelClosed));
                    return;
                };
                match r {
                    Ok(qp) => {
                        let ch = ctx.install_channel(qp, peer);
                        done(Ok(ch));
                    }
                    Err(e) => {
                        let msg: &'static str = match e {
                            xrdma_rnic::cm::CmError::ConnectionRefused => "refused",
                            xrdma_rnic::cm::CmError::Timeout => "timeout",
                            xrdma_rnic::cm::CmError::BadQpState => "bad qp state",
                        };
                        done(Err(XrdmaError::Connect(msg)));
                    }
                }
            });
    }

    fn install_channel(self: &Rc<Self>, qp: Rc<Qp>, peer: NodeId) -> Rc<XrdmaChannel> {
        let ch = XrdmaChannel::new(self, qp.clone(), peer);
        let mut channels = self.channels.borrow_mut();
        let i = qp.qpn.0 as usize;
        let len = channels.len().max(i + 1);
        channels.resize(len, None);
        channels[i] = Some(ch.clone());
        ch
    }

    pub(crate) fn channel_closed(&self, ch: &Rc<XrdmaChannel>, reason: CloseReason) {
        if let Some(slot) = self.channels.borrow_mut().get_mut(ch.qp.qpn.0 as usize) {
            *slot = None;
        }
        {
            let mut st = self.stats.borrow_mut();
            st.channels_closed_total += 1;
            if reason == CloseReason::PeerDead {
                st.keepalive_failures += 1;
            }
        }
        // Recycle the QP (errored QPs are destroyed inside put()).
        self.qpcache.put(ch.qp.clone());
        if let Some(i) = self.instrument.borrow().as_ref() {
            i.on_channel_closed(ch.peer, reason);
        }
    }

    /// Open channels right now.
    pub fn channel_count(&self) -> usize {
        self.channels.borrow().iter().flatten().count()
    }

    /// Open channels in qpn order (monitoring / XR-Stat).
    pub fn channels(&self) -> Vec<Rc<XrdmaChannel>> {
        self.channels.borrow().iter().flatten().cloned().collect()
    }

    // ------------------------------------------------------------------
    // Flow control (§V-C queuing)
    // ------------------------------------------------------------------

    /// Post a data WR through the outstanding-WR gate: runs `f` now if
    /// under the limit, otherwise queues it.
    pub(crate) fn flow_post(&self, f: impl FnOnce() + 'static) {
        let cfg = self.config().flowctl;
        let mut flow = self.flow.borrow_mut();
        if !cfg.enabled || flow.outstanding < cfg.max_outstanding {
            flow.outstanding += 1;
            drop(flow);
            f();
        } else {
            flow.queue.push_back(Box::new(f));
        }
    }

    /// Release a data WR's slot (its completion, or a bail-out path or
    /// teardown that will see none) and drain the queue.
    pub(crate) fn flow_release(&self) {
        let next = {
            let mut flow = self.flow.borrow_mut();
            flow.outstanding = flow.outstanding.saturating_sub(1);
            if let Some(f) = flow.queue.pop_front() {
                flow.outstanding += 1;
                Some(f)
            } else {
                None
            }
        };
        if let Some(f) = next {
            f();
        }
    }

    /// Outstanding + queued WRs (diagnostics).
    pub fn flow_depths(&self) -> (usize, usize) {
        let f = self.flow.borrow();
        (f.outstanding, f.queue.len())
    }

    /// Is the software flow queue at its hard cap (§V-C: the queue buffers
    /// excess requests, but not without bound)?
    pub(crate) fn flow_saturated(&self) -> bool {
        let cfg = self.config().flowctl;
        cfg.enabled && self.flow.borrow().queue.len() >= cfg.queue_cap
    }

    /// Acquire up to `want` outstanding-WR slots at once; returns how many
    /// were granted (possibly zero). Batch counterpart of `flow_post` for
    /// the doorbell-coalescing path.
    fn flow_try_acquire(&self, want: usize) -> usize {
        let cfg = self.config().flowctl;
        let mut flow = self.flow.borrow_mut();
        if !cfg.enabled {
            flow.outstanding += want;
            return want;
        }
        let take = want.min(cfg.max_outstanding.saturating_sub(flow.outstanding));
        flow.outstanding += take;
        take
    }

    // ------------------------------------------------------------------
    // Doorbell coalescing (the shared-CQ fast path's send side)
    // ------------------------------------------------------------------

    /// Queue a data WR for the next doorbell flush. Every WR queued before
    /// the flush item reaches the front of the thread FIFO — all sends
    /// issued within the current progress quantum, plus any from handlers
    /// queued ahead of the flush — is chained into per-QP postlists, and
    /// each postlist rings a single doorbell.
    pub(crate) fn post_coalesced(self: &Rc<Self>, ch: &Rc<XrdmaChannel>, wr: SendWr) {
        self.pending_doorbell.borrow_mut().push((ch.clone(), wr));
        if !self.doorbell_armed.replace(true) {
            let me = self.clone();
            self.thread.exec(Dur::ZERO, move |_| me.flush_doorbell());
        }
    }

    fn flush_doorbell(self: &Rc<Self>) {
        self.doorbell_armed.set(false);
        let batch = self.pending_doorbell.take();
        // One MMIO write batch covers every WR flushed in this quantum,
        // regardless of how many QPs the postlists span — the CPU-side
        // doorbell cost is paid once (tentpole contract: sends within one
        // progress quantum share a single doorbell charge).
        self.charge_doorbell(batch.len() as u64);
        let mut iter = batch.into_iter().peekable();
        while let Some((ch, wr)) = iter.next() {
            let mut group = vec![wr];
            while iter.peek().is_some_and(|(c, _)| Rc::ptr_eq(c, &ch)) {
                group.push(iter.next().expect("peeked").1);
            }
            self.post_group(&ch, group);
        }
    }

    /// Post one channel's chained WRs (doorbell already charged by the
    /// flush): the prefix the flow gate admits goes out as one postlist;
    /// the rest queue in software and re-coalesce when completions free
    /// their slots (§V-C).
    fn post_group(self: &Rc<Self>, ch: &Rc<XrdmaChannel>, mut wrs: Vec<SendWr>) {
        if ch.closed.get() {
            return; // no flow slots acquired yet; nothing to release
        }
        // Strict per-channel FIFO through the gate: while this channel has
        // WRs parked in the flow queue or granted-but-unflushed, a fresh
        // batch must queue behind them. Slots can free (and the gate can
        // open) while those older WRs still wait in the granted batch, so
        // without this check a newer seq would overtake them onto the
        // wire and the peer's window would drop it as a duplicate.
        let granted = if ch.flow_waiting.get() > 0 {
            0
        } else {
            self.flow_try_acquire(wrs.len())
        };
        let rest = wrs.split_off(granted);
        if !wrs.is_empty() {
            let n = wrs.len() as u32;
            match self.rnic.post_send_list(&ch.qp, wrs) {
                Ok(()) => ch.flow_slots.set(ch.flow_slots.get() + n),
                Err(_) => {
                    // QP died under us (keepalive race); hand the slots
                    // back and tear down. The remainder dies with the
                    // channel.
                    for _ in 0..n {
                        self.flow_release();
                    }
                    ch.fail(CloseReason::PeerDead);
                    return;
                }
            }
        }
        if rest.is_empty() {
            return;
        }
        ch.stats.borrow_mut().flowctl_queued += rest.len() as u64;
        ch.flow_waiting
            .set(ch.flow_waiting.get() + rest.len() as u32);
        let mut flow = self.flow.borrow_mut();
        for wr in rest {
            let me = ch.clone();
            flow.queue.push_back(Box::new(move || {
                if me.closed.get() {
                    me.flow_waiting.set(me.flow_waiting.get().saturating_sub(1));
                    if let Some(ctx) = me.ctx.upgrade() {
                        ctx.flow_release();
                    }
                    return;
                }
                let Some(ctx) = me.ctx.upgrade() else { return };
                // The slot this WR waited for is already held. Slots free
                // as completions drain, so several of these fire within
                // one quantum — batch them under one deferred doorbell
                // instead of ringing one bell each. The WR still counts as
                // waiting until the flush actually posts it.
                ctx.post_granted(&me, wr);
            }));
        }
    }

    /// Queue a flow-granted WR for the next granted-batch flush. Safe to
    /// defer: while anything sits in the flow queue the gate is full, so
    /// a fresh send for the same channel cannot overtake it through
    /// `post_group` — it joins the flow queue behind this WR.
    fn post_granted(self: &Rc<Self>, ch: &Rc<XrdmaChannel>, wr: SendWr) {
        self.granted_doorbell.borrow_mut().push((ch.clone(), wr));
        if !self.granted_armed.replace(true) {
            let me = self.clone();
            self.thread.exec(Dur::ZERO, move |_| me.flush_granted());
        }
    }

    /// Post every WR whose flow slot was granted this quantum: per-QP
    /// postlists under a single doorbell charge, mirroring
    /// [`Self::flush_doorbell`] but without touching the gate (the slots
    /// are already ours).
    fn flush_granted(self: &Rc<Self>) {
        self.granted_armed.set(false);
        let batch = self.granted_doorbell.take();
        self.charge_doorbell(batch.len() as u64);
        let mut iter = batch.into_iter().peekable();
        while let Some((ch, wr)) = iter.next() {
            let mut group = vec![wr];
            while iter.peek().is_some_and(|(c, _)| Rc::ptr_eq(c, &ch)) {
                group.push(iter.next().expect("peeked").1);
            }
            let n = group.len() as u32;
            ch.flow_waiting.set(ch.flow_waiting.get().saturating_sub(n));
            if ch.closed.get() {
                for _ in 0..n {
                    self.flow_release();
                }
                continue;
            }
            match self.rnic.post_send_list(&ch.qp, group) {
                Ok(()) => ch.flow_slots.set(ch.flow_slots.get() + n),
                Err(_) => {
                    for _ in 0..n {
                        self.flow_release();
                    }
                    ch.fail(CloseReason::PeerDead);
                }
            }
        }
    }

    /// Charge one doorbell ring carrying `wrs` WRs: CPU cost plus the
    /// coalescing-factor counters.
    pub(crate) fn charge_doorbell(&self, wrs: u64) {
        self.thread.charge(CPU_DOORBELL);
        let mut st = self.stats.borrow_mut();
        st.doorbells_rung += 1;
        st.doorbell_wrs += wrs;
    }

    // ------------------------------------------------------------------
    // Poll loop
    // ------------------------------------------------------------------

    /// Schedule a pump on the context thread, honouring the polling mode's
    /// wake-up cost (§IV-B hybrid polling).
    fn schedule_pump(self: &Rc<Self>) {
        if self.pump_requested_at.get().is_none() {
            self.pump_requested_at.set(Some(self.world.now()));
        }
        if self.pump_scheduled.replace(true) {
            return;
        }
        let delay = match self.config().poll_mode {
            PollMode::Busy => Dur::ZERO,
            PollMode::Event => WAKEUP_LATENCY,
            PollMode::Hybrid => {
                let since = self.world.now().since(self.last_traffic.get());
                if since <= HYBRID_WINDOW {
                    Dur::ZERO
                } else {
                    WAKEUP_LATENCY
                }
            }
        };
        if let Some(cb) = self.fd_readable_cb.borrow().as_ref() {
            cb();
        }
        let me = self.clone();
        self.thread.exec(delay, move |_| {
            me.pump_scheduled.set(false);
            me.pump();
        });
    }

    fn pump(self: &Rc<Self>) {
        let now = self.world.now();
        // Poll-gap watchdog (§VI-A method II): measure how long completed
        // work sat waiting for this poll — the thread was off doing
        // something slow (the Pangu allocator-lock case).
        if let Some(ready_at) = self.pump_requested_at.take() {
            let gap = now.since(ready_at);
            let warn = self.config().polling_warn_cycle;
            if poll_gap_violates(gap, warn) {
                self.stats.borrow_mut().poll_gap_warnings += 1;
                tele!(PollGap {
                    node: self.node().0,
                    gap_ns: gap.as_nanos(),
                });
                if let Some(i) = self.instrument.borrow().as_ref() {
                    i.on_poll_gap(now, gap);
                }
            }
        }
        self.last_traffic.set(now);
        let batch = self.config().cq_poll_batch;
        self.polling(batch);
        self.last_pump_end
            .set(self.world.now().max(self.thread.busy_until()));
    }

    fn dispatch(self: &Rc<Self>, cqe: Cqe) {
        let recv = matches!(cqe.opcode, CqeOpcode::Recv | CqeOpcode::RecvWriteImm);
        let ch = self.channels.borrow().get(cqe.qpn.0 as usize).cloned();
        let Some(Some(ch)) = ch else {
            if recv && self.has_srq() {
                // The channel died (eviction / close) before this
                // completion drained: the shared slot must rejoin the
                // rotation or the pool would slowly bleed dry.
                self.repost_srq_slot(cqe.wr_id as u32);
            }
            return;
        };
        let ok = cqe.status.is_ok();
        // Reads and eager sends went through the flow gate; controls and
        // probes did not. Release the slot only while the channel still
        // owns it (teardown releases the rest in bulk; CQEs flushed after
        // teardown must not double-release).
        let gated = match cqe.opcode {
            CqeOpcode::Read => true,
            CqeOpcode::Send => wr_tag(cqe.wr_id) == crate::channel::TAG_EAGER,
            _ => false,
        };
        if gated && ch.flow_slots.get() > 0 {
            ch.flow_slots.set(ch.flow_slots.get() - 1);
            self.flow_release();
        }
        match cqe.opcode {
            _ if recv && ok => {
                // CQE delivered to software: the span enters its final,
                // application-side stage.
                xrdma_telemetry::span_mark!(cqe.span, App);
                ch.on_recv(cqe.wr_id as u32, cqe.byte_len, cqe.span);
            }
            CqeOpcode::Read if ok => {
                debug_assert_eq!(wr_tag(cqe.wr_id), TAG_READ);
                ch.on_read_done(cqe.wr_id);
            }
            // Send/read completions and keepalive probes (zero-byte
            // writes).
            CqeOpcode::Read | CqeOpcode::Send | CqeOpcode::Write => {
                ch.on_send_complete(cqe.wr_id, ok)
            }
            // Flush errors on receive need no action: teardown is driven
            // from the send side / keepalive.
            CqeOpcode::Recv | CqeOpcode::RecvWriteImm | CqeOpcode::Atomic => {}
        }
    }

    // ------------------------------------------------------------------
    // Context timer: keepalive, NOP deadlock probe, cache shrink
    // ------------------------------------------------------------------

    fn start_timer(self: &Rc<Self>) {
        if self.timer_running.replace(true) {
            return;
        }
        self.arm_timer();
    }

    fn arm_timer(self: &Rc<Self>) {
        // The period is re-read on every arm (config is adjustable), but
        // the tick trampoline is boxed exactly once per context.
        let period = self.config().timer_period;
        if self.tick_timer.borrow().is_none() {
            // Weak capture: the slab slot must not keep the context (and
            // through it the world) alive — see DESIGN.md §3 on timer
            // ownership.
            let me = Rc::downgrade(self);
            let timer = self.world.timer(move || {
                let Some(me) = me.upgrade() else { return };
                let me2 = me.clone();
                me.thread.exec(Dur::ZERO, move |_| {
                    me2.tick();
                });
            });
            *self.tick_timer.borrow_mut() = Some(timer);
        }
        self.tick_timer
            .borrow()
            .as_ref()
            .expect("just installed")
            .arm_in(period);
    }

    fn tick(self: &Rc<Self>) {
        let now = self.world.now();
        self.tick_count.set(self.tick_count.get() + 1);
        let (ka_intv, nop_timeout) = {
            let cfg = self.config();
            (cfg.keepalive_intv, cfg.nop_timeout)
        };
        for ch in self.channels() {
            if ch.closed.get() {
                continue;
            }
            // KeepAlive (§V-A): probe after silence, at most one probe per
            // interval ("a probe request will be triggered if either side
            // fails to communicate with peer side more than S ms").
            if now.since(ch.last_rx.get()) >= ka_intv
                && now.since(ch.last_tx.get()) >= ka_intv
                && now.since(ch.last_probe.get()) >= ka_intv
            {
                ch.send_probe();
            }
            // NOP deadlock breaker (§V-B): window stalled with queued work
            // for too long — send a NOP to ferry our ACK across.
            if let Some(since) = ch.stalled_since.get() {
                if now.since(since) >= nop_timeout {
                    ch.send_ctrl(crate::proto::MsgKind::Nop);
                    ch.stalled_since.set(Some(now));
                }
            }
            // Ack flush for one-way traffic with no reverse messages to
            // piggyback on.
            ch.idle_ack();
        }
        // Memory-cache shrink every 8th tick (§IV-E "if the resource
        // utilization becomes lower, it will shrink its capacity").
        if self.tick_count.get().is_multiple_of(8) {
            self.memcache.shrink();
        }
        {
            let mut st = self.stats.borrow_mut();
            st.memcache_occupied = self.memcache.occupied_bytes();
            st.memcache_in_use = self.memcache.in_use_bytes();
        }
        if let Some(i) = self.instrument.borrow().as_ref() {
            i.on_timer_tick(now);
        }
        self.arm_timer();
    }

    // ------------------------------------------------------------------
    // Stats & tracing plumbing
    // ------------------------------------------------------------------

    pub fn stats(&self) -> ContextStats {
        let mut st = self.stats.borrow().clone();
        st.channels_open = self.channel_count();
        st.memcache_occupied = self.memcache.occupied_bytes();
        st.memcache_in_use = self.memcache.in_use_bytes();
        st.qp_cache_hits = self.qpcache.hits();
        st.qp_cache_misses = self.qpcache.misses();
        let h = self.rpc_latency.borrow();
        st.rpc_latency = if h.count() > 0 {
            Some(h.summary())
        } else {
            None
        };
        st
    }

    pub(crate) fn record_rpc_latency(&self, d: Dur) {
        self.rpc_latency.borrow_mut().record(d.as_nanos());
    }

    pub(crate) fn record_slow_op(&self, what: &'static str, took: Dur) {
        let op = SlowOp {
            at: self.world.now(),
            what,
            took,
        };
        tele!(SlowOp {
            node: self.node().0,
            what,
            took_ns: took.as_nanos(),
        });
        if let Some(i) = self.instrument.borrow().as_ref() {
            i.on_slow_op(&op);
        }
        let mut log = self.slow_log.borrow_mut();
        if log.len() < 10_000 {
            log.push(op);
        }
    }

    /// Client side: the traced response arrived.
    pub(crate) fn record_client_trace(
        &self,
        trace_id: u64,
        t1_ns: u64,
        server_recv_ns: u64,
        rpc_id: u32,
    ) {
        let rec = TraceRecord {
            trace_id,
            rpc_id,
            t1_ns,
            server_recv_ns,
            t3_ns: self.local_clock_ns(),
        };
        if let Some(i) = self.instrument.borrow().as_ref() {
            i.on_trace(&rec);
        }
        let mut traces = self.traces.borrow_mut();
        if traces.len() >= 100_000 {
            traces.clear(); // bounded ring, coarse
        }
        traces.insert(trace_id, rec);
    }
}
