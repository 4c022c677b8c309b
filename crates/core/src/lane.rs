//! The X-RDMA middleware on owned lane state (DESIGN.md §3.15): the
//! glue that runs the ported per-host stack — channel seq-ack windows,
//! keepalive, CM handshake, QP/CQ/DCQCN ([`xrdma_rnic::lane`]) and the
//! host NIC endpoint ([`xrdma_fabric::lane`]) — inside
//! [`xrdma_sim::shard::ShardWorld`], one lane per host.
//!
//! # Porting rules (what moved where)
//!
//! * The serial stack reaches everything through `Rc<World>`; here a
//!   host's whole stack is one owned [`HostLane`] value, and *every*
//!   cross-object reference is a handle index: channel `i` drives QP
//!   `i` (same index by construction), a peer is `(peer_host,
//!   peer_chan)`, callbacks are plain `fn` pointers in [`HostHooks`].
//! * All cross-host interactions are cross-lane sends: packet
//!   delivery after NIC serialization (two-hop propagation = the
//!   lookahead floor), the CM handshake (out-of-band, as TCP-based CM
//!   is in production), and keepalive probes (which are ordinary
//!   packets). Nothing else crosses a lane boundary.
//! * Every timer — pacing wakeups, go-back-N retransmission (lazily
//!   reprogrammed), DCQCN ticks, keepalive — is armed through the
//!   lane's own calendar, so same-seed digests, telemetry JSONL and
//!   derived span JSONL are byte-identical run to run.
//!
//! The reference workload, [`grouped_incast`], is the scenario
//! tests/sharding.rs's lane battery runs: an N-node cluster partitioned
//! into racks of `group` hosts, each rack running a many-to-one incast
//! into its sink (deep enough that receiver-side ECN and DCQCN engage),
//! plus a cross-rack heartbeat mesh so every lane sends and receives
//! cross-lane traffic.

use std::collections::VecDeque;

use xrdma_fabric::lane::{HostNicLane, LanePkt, NicLaneConfig};
use xrdma_rnic::dcqcn::ALPHA_TIMER;
use xrdma_rnic::lane::{LaneBth, LaneBthKind, Pump, RnicLane, RnicLaneConfig, RETX_TIMEOUT_NS};
use xrdma_sim::shard::{Lane, ShardConfig, ShardWorld};
use xrdma_sim::{Dur, Time};

use crate::seqack::{RxAccept, RxWindow, TxWindow};

/// The lane world running the full middleware stack.
pub type HostWorld = ShardWorld<HostLane>;
/// Shorthand for glue signatures.
type L = Lane<HostLane>;

/// Application-header bytes per middleware message on the wire.
pub const MSG_HDR_BYTES: u32 = 32;

/// Middleware message kinds: sequenced data (request/reply RPC halves)
/// and unsequenced control (keepalive, standalone window ack).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    Request,
    Reply,
    Probe,
    ProbeAck,
    WindowAck,
}

/// One middleware message. Plain `Copy` data — payloads are modelled by
/// size, exactly like the serial stack's size-only request API.
#[derive(Clone, Copy, Debug)]
pub struct LaneMsg {
    pub kind: MsgKind,
    /// Channel seq-ack sequence number (Request/Reply only).
    pub ch_seq: u32,
    /// Piggybacked cumulative window ACK (every message carries one).
    pub ack: u32,
    pub rpc: u64,
    pub size: u32,
}

/// Channel lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChanState {
    /// CM handshake in flight.
    Connecting,
    Up,
    /// Keepalive declared the peer dead.
    Dead,
}

/// One middleware channel on lane state: the seq-ack window pair
/// (Algorithm 1), the pending-send queue, and keepalive bookkeeping.
/// Channel `i` owns QP `i` of the same host — the handle-index rule.
#[derive(Debug)]
pub struct ChannelLane {
    pub peer_host: u32,
    pub peer_chan: u32,
    /// Application tag (which traffic class this channel carries).
    pub role: u32,
    pub state: ChanState,
    tx: TxWindow,
    rx: RxWindow,
    /// Messages accepted but waiting for a window slot.
    pending: VecDeque<(MsgKind, u64, u32)>,
    next_rpc: u64,
    pub rpcs_out: u32,
    // --- keepalive ---
    last_rx_ns: u64,
    probe_outstanding: bool,
    probe_misses: u32,
    pub probes_sent: u64,
    // --- stats ---
    pub msgs_sent: u64,
    pub msgs_recv: u64,
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    pub window_stalls: u64,
}

impl ChannelLane {
    fn new(peer_host: u32, role: u32, window: u32) -> ChannelLane {
        ChannelLane {
            peer_host,
            peer_chan: u32::MAX,
            role,
            state: ChanState::Connecting,
            tx: TxWindow::new(window),
            rx: RxWindow::new(window),
            pending: VecDeque::new(),
            next_rpc: 0,
            rpcs_out: 0,
            last_rx_ns: 0,
            probe_outstanding: false,
            probe_misses: 0,
            probes_sent: 0,
            msgs_sent: 0,
            msgs_recv: 0,
            bytes_sent: 0,
            bytes_recv: 0,
            window_stalls: 0,
        }
    }

    pub fn tx_in_flight(&self) -> u32 {
        self.tx.in_flight()
    }
}

/// Per-host application hooks: plain `fn` pointers (no captures, no
/// allocation) — the lane port of the serial stack's
/// boxed channel callbacks.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostHooks {
    pub on_request: Option<fn(&mut L, u32, LaneMsg)>,
    pub on_reply: Option<fn(&mut L, u32, LaneMsg)>,
    pub on_connected: Option<fn(&mut L, u32)>,
    pub on_peer_dead: Option<fn(&mut L, u32)>,
}

/// Seq-ack window depth per channel.
pub const CHANNEL_WINDOW: u32 = 64;
/// Unanswered keepalive probes before the peer is declared dead.
pub const DEAD_AFTER_PROBES: u32 = 3;
/// Out-of-band CM handshake latency (TCP-based in production).
pub const CM_DELAY_NS: u64 = 100_000;

/// Host-stack tunables.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    pub nic: NicLaneConfig,
    pub rnic: RnicLaneConfig,
    /// Keepalive probe interval.
    pub probe_interval_ns: u64,
    /// Standalone window-ACK threshold (§V-B: ack after N silent rx).
    pub ack_after: u32,
}

impl Default for HostConfig {
    fn default() -> HostConfig {
        HostConfig {
            nic: NicLaneConfig::default(),
            rnic: RnicLaneConfig::default(),
            probe_interval_ns: 100_000,
            ack_after: 8,
        }
    }
}

/// Deterministic app-level counters, part of the digest.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppCounters {
    pub rpcs_started: u64,
    pub rpcs_done: u64,
    pub requests_served: u64,
    pub rpc_bytes: u64,
}

/// The whole middleware stack of one host as owned lane state: no `Rc`,
/// no `RefCell`, no raw pointers anywhere inside.
pub struct HostLane {
    pub host: u32,
    pub cfg: HostConfig,
    pub nic: HostNicLane<LaneBth<LaneMsg>>,
    pub rnic: RnicLane<LaneMsg>,
    pub chans: Vec<ChannelLane>,
    pub hooks: HostHooks,
    pub app: AppCounters,
    /// Workload knobs readable from capture-free `fn` hooks.
    pub workload_rpc_size: u32,
    pub workload_heartbeat_ns: u64,
    /// Reused CQE drain buffer (no per-poll allocation).
    cqe_scratch: Vec<(u32, u64)>,
}

impl HostLane {
    pub fn new(host: u32, cfg: HostConfig) -> HostLane {
        HostLane {
            host,
            cfg,
            nic: HostNicLane::new(cfg.nic),
            rnic: RnicLane::new(cfg.rnic),
            chans: Vec::new(),
            hooks: HostHooks::default(),
            app: AppCounters::default(),
            workload_rpc_size: 4096,
            workload_heartbeat_ns: 0,
            cqe_scratch: Vec::new(),
        }
    }

    pub fn chan(&mut self, chan: u32) -> &mut ChannelLane {
        &mut self.chans[chan as usize]
    }

    /// Allocate a channel + its QP (same index) toward `peer_host`.
    fn alloc_channel(&mut self, peer_host: u32, role: u32) -> u32 {
        let qpn = self.rnic.create_qp();
        let chan = self.chans.len() as u32;
        debug_assert_eq!(qpn, chan, "channel i drives QP i by construction");
        self.chans
            .push(ChannelLane::new(peer_host, role, CHANNEL_WINDOW));
        chan
    }
}

/// Deterministic one-line summary per host: everything observable about
/// the stack, so `ShardWorld::digest` covers the *entire* middleware
/// state.
impl std::fmt::Debug for HostLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "h{} {:?} app{{start={} done={} served={} bytes={}}} stale={}",
            self.host,
            self.nic,
            self.app.rpcs_started,
            self.app.rpcs_done,
            self.app.requests_served,
            self.app.rpc_bytes,
            self.rnic.stale_pkts
        )?;
        for (i, ch) in self.chans.iter().enumerate() {
            let qp = &self.rnic.qps[i];
            write!(
                f,
                " | ch{}->h{}.{} {:?} tx={}/{}B rx={}/{}B stall={} probe={} miss={} \
                 qp{{f={}F/{}F dup={} retx={} cnp={} rate={:.3}}}",
                i,
                ch.peer_host,
                ch.peer_chan,
                ch.state,
                ch.msgs_sent,
                ch.bytes_sent,
                ch.msgs_recv,
                ch.bytes_recv,
                ch.window_stalls,
                ch.probes_sent,
                ch.probe_misses,
                qp.tx_frags,
                qp.rx_frags,
                qp.dup_frags,
                qp.retransmissions,
                qp.cnps_rx,
                qp.rp.rate_gbps(),
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Connection management: out-of-band handshake over cross-lane sends
// ---------------------------------------------------------------------------

/// Start a connection from this lane to `server`: allocates the local
/// channel (returned immediately, state `Connecting`) and launches the
/// CM handshake. `hooks.on_connected` fires when it reaches `Up`.
pub fn connect(l: &mut L, server: u32, role: u32) -> u32 {
    let me = l.id();
    let chan = l.state.alloc_channel(server, role);
    // Connection token: unique per (host, channel) incarnation; both QP
    // endpoints adopt it and stale packets are rejected against it.
    let token = (u64::from(me) << 20) | u64::from(chan) | (1 << 62);
    let delay = Dur::nanos(CM_DELAY_NS);
    l.send_to(server, delay, move |srv| {
        cm_accept(srv, me, chan, token, role);
    });
    chan
}

/// Server side of the handshake: allocate the passive channel + QP,
/// move it to RTS, reply with our handle.
fn cm_accept(srv: &mut L, client_host: u32, client_chan: u32, token: u64, role: u32) {
    let chan = srv.state.alloc_channel(client_host, role);
    let s = &mut srv.state;
    s.chans[chan as usize].peer_chan = client_chan;
    s.chans[chan as usize].state = ChanState::Up;
    s.rnic.qp(chan).connect(client_host, client_chan, token);
    channel_up(srv, chan);
    let delay = Dur::nanos(CM_DELAY_NS);
    srv.send_to(client_host, delay, move |cl| {
        cm_complete(cl, client_chan, chan, token);
    });
}

/// Client side completion: bind the peer handle, RTS, surface `Up`.
fn cm_complete(cl: &mut L, chan: u32, server_chan: u32, token: u64) {
    let s = &mut cl.state;
    let peer_host = s.chans[chan as usize].peer_host;
    s.chans[chan as usize].peer_chan = server_chan;
    s.chans[chan as usize].state = ChanState::Up;
    s.rnic.qp(chan).connect(peer_host, server_chan, token);
    channel_up(cl, chan);
    let hooks = cl.state.hooks;
    if let Some(f) = hooks.on_connected {
        f(cl, chan);
    }
}

/// Shared post-`Up` setup: the keepalive tick starts on both ends.
fn channel_up(l: &mut L, chan: u32) {
    let now = l.now().nanos();
    l.state.chans[chan as usize].last_rx_ns = now;
    let period = Dur::nanos(l.state.cfg.probe_interval_ns);
    l.start_periodic(period, move |l| keepalive_tick(l, chan));
}

// ---------------------------------------------------------------------------
// Channel layer: seq-ack windows, RPC surface, keepalive
// ---------------------------------------------------------------------------

/// Issue one RPC request of `size` payload bytes. Returns the rpc id.
/// Queued behind the window when it is closed (flow control, §V-C).
pub fn channel_request(l: &mut L, chan: u32, size: u32) -> u64 {
    let s = &mut l.state;
    let ch = &mut s.chans[chan as usize];
    let rpc = ch.next_rpc;
    ch.next_rpc += 1;
    ch.rpcs_out += 1;
    ch.pending.push_back((MsgKind::Request, rpc, size));
    s.app.rpcs_started += 1;
    pump_channel(l, chan);
    rpc
}

/// Serve an RPC: send the reply half for `rpc`.
pub fn channel_reply(l: &mut L, chan: u32, rpc: u64, size: u32) {
    let s = &mut l.state;
    s.chans[chan as usize]
        .pending
        .push_back((MsgKind::Reply, rpc, size));
    s.app.requests_served += 1;
    pump_channel(l, chan);
}

/// Move pending messages into the QP while the seq-ack window is open.
fn pump_channel(l: &mut L, chan: u32) {
    let s = &mut l.state;
    let ch = &mut s.chans[chan as usize];
    if ch.state != ChanState::Up {
        return;
    }
    let mut posted = false;
    while !ch.pending.is_empty() {
        if !ch.tx.can_send() {
            ch.window_stalls += 1;
            break;
        }
        let (kind, rpc, size) = ch.pending.pop_front().expect("non-empty");
        let ch_seq = ch.tx.next_seq();
        let ack = ch.rx.take_ack();
        let msg = LaneMsg {
            kind,
            ch_seq,
            ack,
            rpc,
            size,
        };
        ch.msgs_sent += 1;
        ch.bytes_sent += u64::from(size);
        s.rnic.qp(chan).post_send(rpc, size + MSG_HDR_BYTES, msg);
        posted = true;
    }
    if posted {
        qp_pump(l, chan);
    }
}

/// Send an unsequenced control message (probe / probe-ack / standalone
/// window ack). Control bypasses the data window so flow control can
/// never deadlock the ack path — the NOP-slot idea of Algorithm 1.
fn send_ctrl(l: &mut L, chan: u32, kind: MsgKind) {
    let s = &mut l.state;
    let ch = &mut s.chans[chan as usize];
    if ch.state != ChanState::Up {
        return;
    }
    let ack = ch.rx.take_ack();
    let msg = LaneMsg {
        kind,
        ch_seq: 0,
        ack,
        rpc: 0,
        size: 0,
    };
    s.rnic.qp(chan).post_send(0, MSG_HDR_BYTES, msg);
    qp_pump(l, chan);
}

/// Keepalive (§V-A): probe after a silent interval; unanswered probes
/// accumulate; too many and the peer is declared dead and the channel
/// stops pumping immediately.
fn keepalive_tick(l: &mut L, chan: u32) {
    let now = l.now().nanos();
    let cfg = l.state.cfg;
    let ch = &mut l.state.chans[chan as usize];
    if ch.state != ChanState::Up {
        return;
    }
    if now.saturating_sub(ch.last_rx_ns) < cfg.probe_interval_ns {
        return; // traffic within the interval: no probe needed
    }
    if ch.probe_outstanding {
        ch.probe_misses += 1;
        if ch.probe_misses >= DEAD_AFTER_PROBES {
            ch.state = ChanState::Dead;
            ch.pending.clear();
            let misses = ch.probe_misses;
            l.emit("peer_dead", u64::from(chan), u64::from(misses));
            let hooks = l.state.hooks;
            if let Some(f) = hooks.on_peer_dead {
                f(l, chan);
            }
            return;
        }
    }
    let ch = &mut l.state.chans[chan as usize];
    ch.probe_outstanding = true;
    ch.probes_sent += 1;
    send_ctrl(l, chan, MsgKind::Probe);
}

/// An in-order middleware message reached this host's channel.
fn deliver_msg(l: &mut L, chan: u32, msg: LaneMsg) {
    let now = l.now().nanos();
    let ch = &mut l.state.chans[chan as usize];
    if ch.state != ChanState::Up {
        return;
    }
    ch.last_rx_ns = now;
    ch.probe_outstanding = false;
    ch.probe_misses = 0;
    // Piggybacked window ack first: it may reopen the window.
    let newly_acked = ch.tx.on_ack(msg.ack).count();
    let mut deliverable = false;
    match msg.kind {
        MsgKind::Request | MsgKind::Reply => {
            ch.msgs_recv += 1;
            ch.bytes_recv += u64::from(msg.size);
            if ch.rx.on_arrival(msg.ch_seq) == RxAccept::Fresh {
                // QP delivery is in-order (go-back-N), so completion is
                // immediate and releases exactly this sequence.
                let released = ch.rx.on_complete(msg.ch_seq);
                debug_assert!(released.eq([msg.ch_seq]));
                deliverable = true;
            }
        }
        MsgKind::Probe => {
            send_ctrl(l, chan, MsgKind::ProbeAck);
            after_rx(l, chan, newly_acked);
            return;
        }
        MsgKind::ProbeAck | MsgKind::WindowAck => {
            after_rx(l, chan, newly_acked);
            return;
        }
    }
    if deliverable {
        let hooks = l.state.hooks;
        match msg.kind {
            MsgKind::Request => {
                if let Some(f) = hooks.on_request {
                    f(l, chan, msg);
                }
            }
            MsgKind::Reply => {
                let s = &mut l.state;
                let ch = &mut s.chans[chan as usize];
                ch.rpcs_out = ch.rpcs_out.saturating_sub(1);
                s.app.rpcs_done += 1;
                s.app.rpc_bytes += u64::from(msg.size);
                if let Some(f) = hooks.on_reply {
                    f(l, chan, msg);
                }
            }
            _ => unreachable!("ctrl handled above"),
        }
    }
    after_rx(l, chan, newly_acked);
}

/// Post-delivery bookkeeping: reopened windows pump, and silence-bound
/// acks go out standalone (§V-B).
fn after_rx(l: &mut L, chan: u32, newly_acked: usize) {
    if newly_acked > 0 {
        pump_channel(l, chan);
    }
    let cfg = l.state.cfg;
    let ch = &mut l.state.chans[chan as usize];
    if ch.state == ChanState::Up
        && ch.pending.is_empty()
        && ch.rx.needs_standalone_ack(cfg.ack_after)
    {
        send_ctrl(l, chan, MsgKind::WindowAck);
    }
}

// ---------------------------------------------------------------------------
// QP ↔ NIC plumbing: pacing, retransmission, DCQCN, delivery
// ---------------------------------------------------------------------------

/// Drain the QP's send side into the NIC, arming pacing and retx
/// timers as needed.
fn qp_pump(l: &mut L, qpn: u32) {
    let me = l.id();
    loop {
        let now = l.now().nanos();
        let verdict = l.state.rnic.qp(qpn).pump(now);
        match verdict {
            Pump::Tx(mut bth) => {
                bth.src_host = me;
                let dst = l.state.chans[qpn as usize].peer_host;
                let bytes = bth.wire_bytes();
                nic_send(
                    l,
                    LanePkt {
                        src: me,
                        dst,
                        bytes,
                        ecn: false,
                        body: bth,
                    },
                );
            }
            Pump::WaitUntil(t) => {
                let qp = l.state.rnic.qp(qpn);
                if !qp.pacing_armed {
                    qp.pacing_armed = true;
                    l.schedule_at(Time(t), move |l| {
                        l.state.rnic.qp(qpn).pacing_armed = false;
                        qp_pump(l, qpn);
                    });
                }
                break;
            }
            Pump::Idle => break,
        }
    }
    // Arm the (lazy) retransmission timer while anything is unacked.
    let now = l.now().nanos();
    let qp = l.state.rnic.qp(qpn);
    if qp.in_flight() > 0 && !qp.retx_armed {
        qp.retx_armed = true;
        qp.retx_deadline_ns = now + RETX_TIMEOUT_NS;
        l.schedule_at(Time(now + RETX_TIMEOUT_NS), move |l| retx_fire(l, qpn));
    }
}

/// Retransmission timer: lazily reprogrammed — ack progress pushes the
/// deadline, a true expiry rewinds to the oldest unacked PSN.
fn retx_fire(l: &mut L, qpn: u32) {
    let now = l.now().nanos();
    let qp = l.state.rnic.qp(qpn);
    qp.retx_armed = false;
    if let Some(deadline) = qp.on_retx_timeout(now) {
        qp.retx_armed = true;
        l.schedule_at(Time(deadline), move |l| retx_fire(l, qpn));
        qp_pump(l, qpn);
    }
}

/// DCQCN tick: armed per congested QP on the first CNP, self-disarms
/// once the reaction point recovers to line rate (the serial engine's
/// congested-set policy).
fn dcqcn_tick(l: &mut L, qpn: u32) {
    let now = l.now().nanos();
    let qp = l.state.rnic.qp(qpn);
    qp.rp.on_timer(Time(now));
    if qp.rp.recovered() {
        qp.dcqcn_armed = false;
    } else {
        l.schedule_in(ALPHA_TIMER, move |l| dcqcn_tick(l, qpn));
    }
    qp_pump(l, qpn);
}

/// Hand a packet to the host NIC egress queue.
fn nic_send(l: &mut L, pkt: LanePkt<LaneBth<LaneMsg>>) {
    if let Some(ser_ns) = l.state.nic.egress_enqueue(pkt) {
        l.schedule_in(Dur::nanos(ser_ns), nic_tx_done);
    }
}

/// Serialization completed: launch the front packet cross-lane (two
/// propagation hops — exactly the lookahead floor) and chain the next.
fn nic_tx_done(l: &mut L) {
    let (launched, next) = l.state.nic.tx_done();
    if let Some(pkt) = launched {
        let delay = Dur::nanos(l.state.nic.cross_delay_ns());
        let dst = pkt.dst;
        l.send_to(dst, delay, move |l| nic_rx(l, pkt));
    }
    if let Some(ser_ns) = next {
        l.schedule_in(Dur::nanos(ser_ns), nic_tx_done);
    }
}

/// Arrival at the destination host: admit into the downlink queue
/// (receiver-side congestion; may ECN-mark) and deliver when drained.
fn nic_rx(l: &mut L, mut pkt: LanePkt<LaneBth<LaneMsg>>) {
    let now = l.now().nanos();
    let adm = l.state.nic.rx_admit(now, pkt.bytes);
    pkt.ecn |= adm.ecn;
    l.schedule_at(Time(adm.deliver_at_ns), move |l| rnic_rx(l, pkt));
}

/// The RNIC receive path: validate, then dispatch by packet kind.
fn rnic_rx(l: &mut L, pkt: LanePkt<LaneBth<LaneMsg>>) {
    let now = l.now().nanos();
    let s = &mut l.state;
    let Some(qpn) = s.rnic.validate(&pkt.body) else {
        return;
    };
    match pkt.body.kind {
        LaneBthKind::Data { psn, last, msg, .. } => {
            let rx = s.rnic.qp(qpn).on_data(now, psn, last, msg, pkt.ecn);
            if let Some(ack) = rx.ack {
                send_bth(l, qpn, LaneBthKind::Ack { psn: ack });
            }
            if let Some(expected) = rx.nak {
                send_bth(l, qpn, LaneBthKind::Nak { expected });
            }
            if rx.cnp {
                send_bth(l, qpn, LaneBthKind::Cnp);
            }
            if let Some(m) = rx.deliver {
                deliver_msg(l, qpn, m);
            }
        }
        LaneBthKind::Ack { psn } => {
            // Split-borrow the QP table and CQ for completion pushes.
            let rnic = &mut s.rnic;
            let (qps, cq) = (&mut rnic.qps, &mut rnic.cq);
            qps[qpn as usize].on_ack(now, psn, cq);
            // Drain completions (batch statistics; the scratch buffer is
            // reused so the receive path does not allocate).
            let mut scratch = std::mem::take(&mut s.cqe_scratch);
            scratch.clear();
            s.rnic.cq.drain(&mut scratch);
            s.cqe_scratch = scratch;
            qp_pump(l, qpn);
        }
        LaneBthKind::Nak { expected } => {
            s.rnic.qp(qpn).on_nak(expected);
            qp_pump(l, qpn);
        }
        LaneBthKind::Cnp => {
            let qp = s.rnic.qp(qpn);
            qp.on_cnp(now);
            if !qp.dcqcn_armed {
                qp.dcqcn_armed = true;
                l.schedule_in(ALPHA_TIMER, move |l| dcqcn_tick(l, qpn));
            }
        }
    }
}

/// Emit a bare transport packet (ACK/NAK/CNP) back to the QP's peer.
fn send_bth(l: &mut L, qpn: u32, kind: LaneBthKind<LaneMsg>) {
    let me = l.id();
    let qp = l.state.rnic.qp(qpn);
    let bth = LaneBth {
        src_host: me,
        src_qpn: qpn,
        dst_qpn: qp.peer_qpn,
        token: qp.token,
        kind,
    };
    let dst = qp.peer_host;
    let bytes = bth.wire_bytes();
    nic_send(
        l,
        LanePkt {
            src: me,
            dst,
            bytes,
            ecn: false,
            body: bth,
        },
    );
}

// ---------------------------------------------------------------------------
// Reference workload: grouped incast with a cross-rack heartbeat mesh
// ---------------------------------------------------------------------------

/// Channel roles of the reference workload.
pub const ROLE_BULK: u32 = 0;
pub const ROLE_HEARTBEAT: u32 = 1;

/// Requests each bulk client keeps in flight (deep enough that a rack's
/// sink sees a standing incast and ECN/DCQCN engage).
pub const BULK_PIPELINE: u32 = 8;

/// Workload shape for [`grouped_incast`].
#[derive(Clone, Copy, Debug)]
pub struct IncastSpec {
    /// Total hosts; must be a multiple of `group`.
    pub nodes: usize,
    /// Rack size: host `g*group` is rack `g`'s sink, the rest are
    /// clients blasting it.
    pub group: usize,
    pub seed: u64,
    /// Bulk request payload bytes.
    pub rpc_size: u32,
    /// Cross-rack heartbeat RPC interval (0 disables the mesh).
    pub heartbeat_ns: u64,
    /// NIC fault knob: drop every Nth egress packet on every host
    /// (0 = lossless) — the chaos battery's deterministic loss source.
    pub drop_every: u64,
}

impl IncastSpec {
    /// The reference shape: racks of 16, 48 KiB requests, a 200 µs
    /// cross-rack heartbeat mesh, lossless NICs.
    pub fn full(nodes: usize, seed: u64) -> IncastSpec {
        IncastSpec {
            nodes,
            group: 16,
            seed,
            rpc_size: 48 * 1024,
            heartbeat_ns: 200_000,
            drop_every: 0,
        }
    }
}

fn on_connected(l: &mut L, chan: u32) {
    match l.state.chans[chan as usize].role {
        ROLE_BULK => {
            for _ in 0..BULK_PIPELINE {
                let size = bulk_size(l);
                let rpc = channel_request(l, chan, size);
                emit_tx(l, chan, rpc);
            }
        }
        ROLE_HEARTBEAT => schedule_heartbeat(l, chan),
        _ => unreachable!("unknown role"),
    }
}

fn on_request(l: &mut L, chan: u32, msg: LaneMsg) {
    // Sinks serve every request with a small reply, like the serial
    // incast's 128-byte responses.
    channel_reply(l, chan, msg.rpc, 128);
}

fn on_reply(l: &mut L, chan: u32, msg: LaneMsg) {
    emit_done(l, chan, msg.rpc);
    match l.state.chans[chan as usize].role {
        ROLE_BULK => {
            // Closed loop: keep the pipeline full.
            let size = bulk_size(l);
            let rpc = channel_request(l, chan, size);
            emit_tx(l, chan, rpc);
        }
        ROLE_HEARTBEAT => schedule_heartbeat(l, chan),
        _ => unreachable!("unknown role"),
    }
}

fn schedule_heartbeat(l: &mut L, chan: u32) {
    let interval = l.state.workload_heartbeat_ns.max(1);
    let jitter = l.rng.next_below(interval / 4 + 1);
    l.schedule_in(Dur::nanos(interval + jitter), move |l| {
        if l.state.chans[chan as usize].state == ChanState::Up {
            let rpc = channel_request(l, chan, 128);
            emit_tx(l, chan, rpc);
        }
    });
}

fn bulk_size(l: &mut L) -> u32 {
    // Mild deterministic size spread around the nominal RPC size.
    let nominal = l.state.workload_rpc_size;
    nominal - (nominal / 8) + (l.rng.next_below(u64::from(nominal / 4) + 1) as u32)
}

/// Globally unique RPC key for telemetry: (host, chan, rpc).
fn rpc_key(host: u32, chan: u32, rpc: u64) -> u64 {
    (u64::from(host) << 40) | (u64::from(chan) << 32) | (rpc & 0xffff_ffff)
}

fn emit_tx(l: &mut L, chan: u32, rpc: u64) {
    let key = rpc_key(l.id(), chan, rpc);
    l.emit("tx", key, 0);
}

fn emit_done(l: &mut L, chan: u32, rpc: u64) {
    let key = rpc_key(l.id(), chan, rpc);
    l.emit("done", key, 0);
}

/// Build the reference grouped-incast world. Seeds the CM connects
/// only; call `run_until` to execute.
pub fn grouped_incast(spec: IncastSpec) -> HostWorld {
    assert!(spec.group >= 2, "a rack needs a sink and a client");
    assert!(
        spec.nodes.is_multiple_of(spec.group),
        "nodes must be a multiple of the rack size"
    );
    let racks = spec.nodes / spec.group;
    let mut cfg = HostConfig::default();
    cfg.nic.drop_every = spec.drop_every;
    let hooks = HostHooks {
        on_request: Some(on_request),
        on_reply: Some(on_reply),
        on_connected: Some(on_connected),
        on_peer_dead: None,
    };
    let states = (0..spec.nodes)
        .map(|h| {
            let mut s = HostLane::new(h as u32, cfg);
            s.hooks = hooks;
            s.workload_rpc_size = spec.rpc_size;
            s.workload_heartbeat_ns = spec.heartbeat_ns;
            s
        })
        .collect();
    let mut w = ShardWorld::new(ShardConfig::default(), spec.seed, states);
    for h in 0..spec.nodes {
        let rack = h / spec.group;
        let sink = (rack * spec.group) as u32;
        if h as u32 == sink {
            continue; // sinks only listen
        }
        let lane = w.lane_mut(h);
        // Stagger connects so CM requests don't pulse in one instant.
        let jitter = lane.rng.next_below(20_000);
        lane.schedule_at(Time(1 + jitter), move |l| {
            connect(l, sink, ROLE_BULK);
        });
        if spec.heartbeat_ns > 0 && racks > 1 {
            let next_sink = (((rack + 1) % racks) * spec.group) as u32;
            let jitter = lane.rng.next_below(40_000);
            lane.schedule_at(Time(2 + jitter), move |l| {
                connect(l, next_sink, ROLE_HEARTBEAT);
            });
        }
    }
    w
}

/// Derived per-RPC span log: one line per completed RPC, matched from
/// the `tx`/`done` telemetry records, ordered by completion. Stands in
/// for the serial stack's span JSONL on the lane engine — and is
/// byte-identical run to run because the record log is.
pub fn spans_jsonl(w: &HostWorld) -> String {
    use std::collections::HashMap;
    let mut start: HashMap<u64, u64> = HashMap::new();
    let mut out = String::new();
    for r in w.merged_records() {
        match r.tag {
            "tx" => {
                start.insert(r.a, r.t.nanos());
            }
            "done" => {
                if let Some(t0) = start.remove(&r.a) {
                    let end = r.t.nanos();
                    out.push_str(&format!(
                        "{{\"span\":\"rpc\",\"key\":{},\"start\":{},\"end\":{},\"rtt_ns\":{}}}\n",
                        r.a,
                        t0,
                        end,
                        end - t0
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world(seed: u64, drop_every: u64) -> HostWorld {
        grouped_incast(IncastSpec {
            nodes: 12,
            group: 4,
            seed,
            rpc_size: 8 * 1024,
            heartbeat_ns: 150_000,
            drop_every,
        })
    }

    #[test]
    fn rpcs_complete_end_to_end() {
        let mut w = small_world(7, 0);
        w.run_until(Time(3_000_000));
        let done: u64 = w.lanes().iter().map(|l| l.state.app.rpcs_done).sum();
        assert!(done > 50, "closed-loop RPCs flowed: {done}");
        let served: u64 = w.lanes().iter().map(|l| l.state.app.requests_served).sum();
        assert!(served >= done, "each done RPC was served");
        // The incast is deep enough that DCQCN engaged at some sender.
        let cnps: u64 = w
            .lanes()
            .iter()
            .flat_map(|l| l.state.rnic.qps.iter())
            .map(|q| q.cnps_rx)
            .sum();
        assert!(cnps > 0, "receiver ECN must trigger CNPs under incast");
    }

    #[test]
    fn loss_recovers_via_go_back_n_identically() {
        let mut a = small_world(11, 97);
        a.run_until(Time(3_000_000));
        let retx: u64 = a
            .lanes()
            .iter()
            .flat_map(|l| l.state.rnic.qps.iter())
            .map(|q| q.retransmissions)
            .sum();
        assert!(retx > 0, "drop knob must force retransmissions");
        let done: u64 = a.lanes().iter().map(|l| l.state.app.rpcs_done).sum();
        assert!(done > 10, "RPCs complete despite loss: {done}");
    }

    #[test]
    fn keepalive_declares_dead_peer() {
        // Total blackout: every host drops every egress packet, so after
        // the handshake (which is out-of-band) probes go unanswered.
        let mut w = grouped_incast(IncastSpec {
            nodes: 4,
            group: 4,
            seed: 3,
            rpc_size: 1024,
            heartbeat_ns: 0,
            drop_every: 1,
        });
        w.run_until(Time(2_000_000));
        let dead = w
            .lanes()
            .iter()
            .flat_map(|l| l.state.chans.iter())
            .filter(|c| c.state == ChanState::Dead)
            .count();
        assert!(dead > 0, "keepalive must declare the peer dead");
        let recs = w.merged_records();
        assert!(
            recs.iter().any(|r| r.tag == "peer_dead"),
            "peer_dead emitted"
        );
    }

    #[test]
    fn window_backpressure_counts_stalls() {
        let mut w = small_world(5, 0);
        // Run long enough for connects, then find a connected bulk client
        // channel and flood it.
        w.run_until(Time(400_000));
        let mut flooded = false;
        for i in 0..w.lane_count() {
            let lane = w.lane_mut(i);
            let up = lane
                .state
                .chans
                .iter()
                .position(|c| c.state == ChanState::Up && c.role == ROLE_BULK);
            if let Some(chan) = up {
                for _ in 0..200 {
                    channel_request(lane, chan as u32, 64);
                }
                flooded = true;
                break;
            }
        }
        assert!(flooded, "a bulk channel came up");
        w.run_until(Time(1_000_000));
        let stalls: u64 = w
            .lanes()
            .iter()
            .flat_map(|l| l.state.chans.iter())
            .map(|c| c.window_stalls)
            .sum();
        assert!(stalls > 0, "window must have closed under the flood");
    }
}
