//! `qpscale` — 100 K logical channels over a handful of cached QPs.
//!
//! The connection-multiplexing tentpole's headline experiment (§IV at mux
//! scale): one client talks to 8 servers through an ever-larger population
//! of *logical* connections, two ways:
//!
//! * **muxed** — a `ChannelMux` with a 64-slot physical pool (8 peers × 8
//!   lanes, all slots cache-resident), SRQ receive sharing on: every
//!   logical send rides a warm QP context;
//! * **per-channel** — the classic 1-QP-per-connection layout: N real
//!   channels, N QP contexts, per-channel receive slots. Past the NIC's
//!   QP-context SRAM (1024 entries here) every touch is a cold fetch.
//!
//! Both legs run on a bench-local `RnicConfig` whose `qp_cache_miss` is
//! raised to 3 µs — the dependent QPC/WQE/MTT fetch chain a cold context
//! drags across PCIe, the cliff that motivates multiplexing — **without
//! touching the library default** (which stays calibrated to §VII-F's
//! "influence of RNIC cache is limited" experiment at 250 ns). The sweep drives a strided sample of
//! the logical population (stride keeps wall time bounded; the distinct-QP
//! working set still exceeds the SRAM several times over), measuring
//! sustained 64 B RPC rate, the client NIC's QP-cache miss rate, and
//! receive-slot memory per logical connection.
//!
//! A separate restart-storm scenario tears everything down and brings the
//! full population back at once, sampling serviceable connections vs time:
//! the mux re-establishes only its pool (logical channels are usable the
//! moment their frames queue), while the per-channel layout replays one
//! management-plane handshake per connection.
//!
//! Acceptance: ≥5× message rate muxed vs per-channel at the 100 K point,
//! mux miss rate pinned near zero past the cliff, receive memory per
//! connection ≤¼ of per-channel, and a faster restart ramp.

use std::cell::Cell;
use std::rc::Rc;

use crate::scenarios::{self, connect_slot, pump, ChSlot, Net};
use crate::Report;
use xrdma_core::{ChannelMux, LogicalChannel, XrdmaConfig};
use xrdma_fabric::{FabricConfig, NodeId};
use xrdma_rnic::RnicConfig;
use xrdma_sim::Dur;

const SERVERS: u32 = 8;
const SVC: u16 = 11;
const MSG_BYTES: u64 = 64;
/// `inflight_depth` for the per-channel leg: shallow, so its receive-slot
/// prepost (`depth + slack` slots × ~4 KiB × N channels) stays tractable
/// at 100 K connections — itself part of the scaling story the mux
/// avoids. The mux leg keeps the library default (64) on its pool QPs.
const PER_CH_DEPTH: u32 = 4;
/// At most this many distinct connections are actively driven, each one
/// RPC at a time (completions interleave over the whole driven set, so
/// consecutive touches to the same QP context are ~1/DRIVE_MAX — the
/// thrash is genuine). Larger populations are sampled with a stride.
const DRIVE_MAX: usize = 2048;
const POOL: usize = 64;
const LANES: u64 = 8;

/// Stripe logical connection `i` over the servers so that peer choice and
/// the mux's lane hash (`lcid % LANES`) stay decorrelated — every one of
/// the `SERVERS × LANES` pool slots sees traffic.
fn peer_of(i: usize) -> NodeId {
    NodeId(1 + ((i as u32 / LANES as u32) % SERVERS))
}

/// PCIe-RTT-scale QP-context fetch: a cold context forces the dependent
/// QPC -> WQE -> MTT fetch chain across PCIe (two-plus round trips of
/// ICM traffic), modeled as one 3 µs charge in the NIC pipeline. The
/// library default stays at 250 ns, calibrated to §VII-F's "influence of
/// RNIC cache is limited" experiment; this sweep deliberately models the
/// cliff that motivates multiplexing in the first place.
fn rnic_cfg() -> RnicConfig {
    RnicConfig {
        qp_cache_miss: Dur::nanos(3000),
        ..Default::default()
    }
}

fn base_cfg() -> XrdmaConfig {
    XrdmaConfig {
        // 100 K idle keepalive timers are not the phenomenon under test.
        keepalive_intv: Dur::millis(10_000),
        // A dedicated polling core with a lean software path (the
        // message-rate measurement posture): host CPU cost per op is cut
        // so the NIC's QP-context pipeline — the thing this sweep is
        // about — is the limiting resource, not the host. At 200 ns the
        // muxed leg was still host-bound (~640 ns of thread time per
        // RPC), capping the measured gain at the host ceiling instead of
        // the fetch ceiling. Applied to both legs identically; the
        // per-channel leg is fetch-bound and does not move.
        cpu_send: Dur::nanos(80),
        cpu_recv: Dur::nanos(80),
        ..Default::default()
    }
}

fn per_channel_cfg() -> XrdmaConfig {
    XrdmaConfig {
        inflight_depth: PER_CH_DEPTH,
        ..base_cfg()
    }
}

fn mux_cfg() -> XrdmaConfig {
    XrdmaConfig {
        mux_pool: POOL,
        mux_lanes: LANES,
        use_srq: true,
        // The SRQ must cover the pool's aggregate send window (POOL ×
        // inflight_depth in-flight responses) with slack, or a full-rate
        // burst across every slot drains it into RNR retries.
        srq_size: 2 * POOL * 64,
        ..base_cfg()
    }
}

/// One measured steady-state leg.
struct Leg {
    /// Completed 64 B RPCs per simulated second.
    rate: f64,
    /// Client-NIC QP-context cache miss rate over the measured span.
    miss_rate: f64,
    /// Client receive-slot bytes (memcache occupancy) per logical conn.
    mem_per_conn: f64,
}

fn rig(seed: u64, server_cfg: XrdmaConfig) -> (Net, Vec<Rc<xrdma_core::XrdmaContext>>) {
    let net = scenarios::net(FabricConfig::rack(SERVERS + 1), seed);
    let mut servers = Vec::new();
    for i in 1..=SERVERS {
        servers.push(scenarios::ctx_with(&net, i, rnic_cfg(), server_cfg.clone()));
    }
    (net, servers)
}

fn measure(
    net: &Net,
    client: &Rc<xrdma_core::XrdmaContext>,
    completed: &Rc<Cell<u64>>,
    n_logical: usize,
) -> Leg {
    // Let pipelines fill and transients drain before the counters start.
    net.world.run_for(Dur::millis(5));
    let s0 = client.rnic().stats();
    let done0 = completed.get();
    let t0 = net.world.now();
    net.world.run_for(Dur::millis(20));
    let elapsed = net.world.now().since(t0).as_secs_f64().max(1e-12);
    let s1 = client.rnic().stats();
    let (hits, misses) = (
        s1.qp_cache_hits - s0.qp_cache_hits,
        s1.qp_cache_misses - s0.qp_cache_misses,
    );
    Leg {
        rate: (completed.get() - done0) as f64 / elapsed,
        miss_rate: misses as f64 / ((hits + misses) as f64).max(1.0),
        mem_per_conn: client.stats().memcache_occupied as f64 / n_logical as f64,
    }
}

/// Muxed leg: `n_logical` channels over a `POOL`-slot mux, strided drive.
fn run_muxed(n_logical: usize, seed: u64) -> Leg {
    let (net, servers) = rig(seed, mux_cfg());
    let mut smuxes = Vec::new();
    for s in &servers {
        let m = ChannelMux::new(s, SVC);
        m.serve(|_, _, reply| {
            if let Some(r) = reply {
                let _ = r.reply_size(MSG_BYTES);
            }
        });
        smuxes.push(m);
    }
    let client = scenarios::ctx_with(&net, 0, rnic_cfg(), mux_cfg());
    let mux = ChannelMux::new(&client, SVC);
    let logicals: Vec<_> = (0..n_logical).map(|i| mux.open(peer_of(i))).collect();
    net.world.run_for(Dur::millis(10));

    let completed = Rc::new(Cell::new(0u64));
    fn pump_logical(lc: &Rc<LogicalChannel>, done: &Rc<Cell<u64>>) {
        let l2 = lc.clone();
        let d2 = done.clone();
        let _ = lc.send_request_size(MSG_BYTES, move |_| {
            d2.set(d2.get() + 1);
            pump_logical(&l2, &d2);
        });
    }
    let stride = n_logical.div_ceil(DRIVE_MAX);
    for lc in logicals.iter().step_by(stride) {
        pump_logical(lc, &completed);
    }
    measure(&net, &client, &completed, n_logical)
}

/// Per-channel leg: `n` real channels (one QP each), connected in waves so
/// the management plane never sees the whole population at once.
fn run_per_channel(n: usize, seed: u64) -> Leg {
    let (net, servers) = rig(seed, per_channel_cfg());
    for s in &servers {
        s.listen(SVC, |ch| {
            ch.set_on_request(|ch2, _msg, tok| {
                ch2.respond_size(tok, MSG_BYTES).ok();
            });
        });
    }
    let client = scenarios::ctx_with(&net, 0, rnic_cfg(), per_channel_cfg());
    let slots = connect_wave(&net, &client, n, 4096);
    let channels: Vec<_> = slots
        .iter()
        .map(|s| s.borrow().clone().expect("connected"))
        .collect();

    let completed = Rc::new(Cell::new(0u64));
    let stride = n.div_ceil(DRIVE_MAX);
    for ch in channels.iter().step_by(stride) {
        pump(ch, MSG_BYTES, &completed);
    }
    measure(&net, &client, &completed, n)
}

/// Issue `n` connects in bounded waves; returns once every slot is live.
fn connect_wave(
    net: &Net,
    client: &Rc<xrdma_core::XrdmaContext>,
    n: usize,
    wave: usize,
) -> Vec<ChSlot> {
    let mut slots: Vec<ChSlot> = Vec::with_capacity(n);
    let mut issued = 0usize;
    while issued < n {
        let end = (issued + wave).min(n);
        for i in issued..end {
            slots.push(connect_slot(client, peer_of(i), SVC));
        }
        issued = end;
        net.world.run_for(Dur::millis(100));
    }
    for _ in 0..50 {
        if slots.iter().all(|s| s.borrow().is_some()) {
            break;
        }
        net.world.run_for(Dur::millis(100));
    }
    assert!(
        slots.iter().all(|s| s.borrow().is_some()),
        "all {n} channels establish"
    );
    slots
}

/// Restart-storm ramp: fraction of the population serviceable vs time
/// after a full teardown, sampled every 2 ms.
struct Ramp {
    series: Vec<(f64, f64)>,
    done_ms: f64,
}

fn ramp_muxed(n: usize, seed: u64) -> Ramp {
    let (net, servers) = rig(seed, mux_cfg());
    let mut smuxes = Vec::new();
    for s in &servers {
        let m = ChannelMux::new(s, SVC);
        m.serve(|_, _, reply| {
            if let Some(r) = reply {
                let _ = r.reply_size(MSG_BYTES);
            }
        });
        smuxes.push(m);
    }
    let client = scenarios::ctx_with(&net, 0, rnic_cfg(), mux_cfg());

    // Warm epoch: a mux carries traffic, then the "process restarts" —
    // the old mux (and its pool QPs) is dropped wholesale.
    {
        let mux = ChannelMux::new(&client, SVC);
        let warm: Vec<_> = (0..SERVERS as usize)
            .map(|i| mux.open(NodeId(1 + i as u32)))
            .collect();
        let ok = Rc::new(Cell::new(0u64));
        for lc in &warm {
            let o2 = ok.clone();
            let _ = lc.send_request_size(MSG_BYTES, move |_| o2.set(o2.get() + 1));
        }
        net.world.run_for(Dur::millis(20));
        assert_eq!(ok.get(), SERVERS as u64, "warm epoch carried traffic");
    }
    net.world.run_for(Dur::millis(20));

    // The storm: a fresh mux — epoch bumped, so the restarted process's
    // logical ids cannot alias seq state the warm epoch left on the
    // servers — with the whole logical population demanding service at
    // t0. A connection counts as live once an RPC on it has completed
    // end to end.
    let mux = ChannelMux::with_epoch(&client, SVC, 1);
    let logicals: Vec<_> = (0..n).map(|i| mux.open(peer_of(i))).collect();
    let live = Rc::new(Cell::new(0u64));
    for lc in &logicals {
        let l2 = live.clone();
        let _ = lc.send_request_size(MSG_BYTES, move |_| l2.set(l2.get() + 1));
    }
    sample_ramp(&net, n, move || live.get() as usize)
}

fn ramp_per_channel(n: usize, seed: u64) -> Ramp {
    let (net, servers) = rig(seed, per_channel_cfg());
    for s in &servers {
        s.listen(SVC, |ch| {
            ch.set_on_request(|ch2, _msg, tok| {
                ch2.respond_size(tok, MSG_BYTES).ok();
            });
        });
    }
    let client = scenarios::ctx_with(&net, 0, rnic_cfg(), per_channel_cfg());
    let slots = connect_wave(&net, &client, n, 4096);
    for s in &slots {
        if let Some(ch) = s.borrow().clone() {
            ch.close();
        }
    }
    net.world.run_for(Dur::millis(50));

    // The storm: every connection re-handshakes at once, and counts as
    // live once its first RPC completes (same service bar as the mux).
    let live = Rc::new(Cell::new(0u64));
    for i in 0..n {
        let l2 = live.clone();
        client.connect(peer_of(i), SVC, move |r| {
            let ch = r.expect("reconnect");
            let l3 = l2.clone();
            let _ = ch.send_request_size(MSG_BYTES, move |_, _| l3.set(l3.get() + 1));
        });
    }
    sample_ramp(&net, n, move || live.get() as usize)
}

fn sample_ramp(net: &Net, n: usize, live: impl Fn() -> usize) -> Ramp {
    let t0 = net.world.now();
    let mut series = Vec::new();
    let mut done_ms = f64::NAN;
    for _ in 0..1500 {
        net.world.run_for(Dur::millis(2));
        let ms = net.world.now().since(t0).as_secs_f64() * 1e3;
        let frac = live() as f64 / n as f64;
        series.push((ms, frac));
        if frac >= 1.0 {
            done_ms = ms;
            break;
        }
    }
    assert!(done_ms.is_finite(), "restart storm converges");
    Ramp { series, done_ms }
}

pub fn run() -> Report {
    let ramp_n = 16_000;

    let mut rep = Report::new(
        "qpscale",
        "logical-connection scaling: ChannelMux pool vs 1 QP per channel past the QP-cache cliff",
    );
    let mut rate_mux = Vec::new();
    let mut rate_per = Vec::new();
    let mut miss_mux = Vec::new();
    let mut miss_per = Vec::new();
    let mut mem_mux = Vec::new();
    let mut mem_per = Vec::new();
    let mut last = None;
    println!(
        "{:>8}  {:>12}  {:>12}  {:>7}  {:>7}  {:>9}  {:>9}",
        "LOGICAL", "MUX(msg/s)", "PERCH(msg/s)", "MISS-M", "MISS-P", "B/CONN-M", "B/CONN-P"
    );
    for n in [1_000, 4_000, 16_000, 50_000, 100_000] {
        let m = run_muxed(n, 7);
        let p = run_per_channel(n, 7);
        println!(
            "{n:>8}  {:>12.0}  {:>12.0}  {:>6.1}%  {:>6.1}%  {:>9.0}  {:>9.0}",
            m.rate,
            p.rate,
            m.miss_rate * 100.0,
            p.miss_rate * 100.0,
            m.mem_per_conn,
            p.mem_per_conn
        );
        rate_mux.push((n as f64, m.rate));
        rate_per.push((n as f64, p.rate));
        miss_mux.push((n as f64, m.miss_rate));
        miss_per.push((n as f64, p.miss_rate));
        mem_mux.push((n as f64, m.mem_per_conn));
        mem_per.push((n as f64, p.mem_per_conn));
        last = Some((n, m, p));
    }

    let (n_top, m_top, p_top) = last.expect("non-empty sweep");
    let speedup = m_top.rate / p_top.rate.max(1e-9);
    rep.row(
        &format!("message-rate gain at {n_top} logical conns (mux / per-channel)"),
        ">=5x past the QP-cache cliff",
        format!(
            "{speedup:.1}x ({:.0} vs {:.0} msg/s)",
            m_top.rate, p_top.rate
        ),
        speedup >= 5.0,
    );
    rep.row(
        &format!("QP-cache miss rate at {n_top} conns"),
        "mux pool stays cache-resident",
        format!(
            "{:.1}% muxed vs {:.1}% per-channel",
            m_top.miss_rate * 100.0,
            p_top.miss_rate * 100.0
        ),
        // Per-channel asymptote is 50% from below (one cold fetch + one
        // warm touch per RPC), so gate on "thrashing", not on >1/2.
        m_top.miss_rate < 0.05 && p_top.miss_rate > 0.4,
    );
    rep.row(
        &format!("receive memory per connection at {n_top} conns"),
        "SRQ scales with the pool: <=1/4 of per-channel",
        format!(
            "{:.0} vs {:.0} bytes/conn",
            m_top.mem_per_conn, p_top.mem_per_conn
        ),
        m_top.mem_per_conn <= p_top.mem_per_conn / 4.0,
    );

    let rm = ramp_muxed(ramp_n, 11);
    let rp = ramp_per_channel(ramp_n, 11);
    println!(
        "restart storm at {ramp_n} conns: muxed full service in {:.0} ms, per-channel in {:.0} ms",
        rm.done_ms, rp.done_ms
    );
    rep.row(
        &format!("restart-storm time to full service at {ramp_n} conns"),
        "mux re-establishes its pool, not the population",
        format!(
            "{:.0} ms muxed vs {:.0} ms per-channel",
            rm.done_ms, rp.done_ms
        ),
        rm.done_ms < rp.done_ms,
    );

    rep.series("msgrate_muxed", rate_mux);
    rep.series("msgrate_per_channel", rate_per);
    rep.series("qp_cache_missrate_muxed", miss_mux);
    rep.series("qp_cache_missrate_per_channel", miss_per);
    rep.series("recv_bytes_per_conn_muxed", mem_mux);
    rep.series("recv_bytes_per_conn_per_channel", mem_per);
    rep.series("restart_ramp_muxed", rm.series);
    rep.series("restart_ramp_per_channel", rp.series);
    rep
}
