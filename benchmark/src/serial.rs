//! The four workloads on the serial (`Rc<World>`) stack: world, fabric,
//! contexts and channels built from the public entry points, closed-loop
//! callers kept by the benchmark's own callbacks.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_core::{ChannelMux, LogicalChannel, XrdmaChannel, XrdmaConfig, XrdmaContext, XrdmaMsg};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, Time, World};
use xrdma_telemetry::{HubConfig, HubGuard, TelemetryHub};

use crate::harness::{Counts, Expect, Progress, Telemetry, Workload, WARMUP_NS};
use crate::trace::{self, Name};

const SVC: u16 = 9;

/// How a caller sizes its requests.
#[derive(Clone, Copy)]
enum Request {
    /// A quarter-wide spread around the nominal size (56..=72 B for 64 B),
    /// drawn per RPC from the benchmark's seeded input stream — the shape
    /// the lane stack's reference workload uses.
    Around(u64),
    /// Exactly this many bytes. `incast_bulk` uses it: a spread there
    /// fragments the memcache arenas (peak RSS 40 MB against 11.6 MB, host
    /// time per message +13 %, both swinging by a tenth from seed to seed),
    /// which buries the run-to-run comparison this benchmark exists for.
    /// Its seed dependence comes from the fabric's ECN marking instead.
    Exactly(u64),
}

/// The callers' shared state: the input stream and the RPC accounting.
struct App {
    world: Rc<World>,
    inputs: RefCell<SimRng>,
    request: Request,
    /// `None` echoes the request's length.
    reply_bytes: Option<u64>,
    progress: Cell<Progress>,
    latencies: RefCell<Vec<u64>>,
}

impl App {
    fn update(&self, f: impl FnOnce(&mut Progress)) {
        let mut p = self.progress.get();
        f(&mut p);
        self.progress.set(p);
    }

    /// Account one send attempt; returns the request size and send time.
    fn begin(&self) -> (u64, Time) {
        self.update(|p| p.sent += 1);
        let size = match self.request {
            Request::Around(n) => n - n / 8 + self.inputs.borrow_mut().next_below(n / 4 + 1),
            Request::Exactly(n) => n,
        };
        (size, self.world.now())
    }

    /// Account one reply; true when the caller should send its next request.
    fn complete(&self, size: u64, sent_at: Time, reply: &XrdmaMsg) -> bool {
        if reply.is_error() {
            self.update(|p| p.error_replies += 1);
            return false;
        }
        self.latencies
            .borrow_mut()
            .push(self.world.now().since(sent_at).as_nanos());
        self.update(|p| {
            p.done += 1;
            p.payload_bytes += size + reply.len;
        });
        true
    }

    fn submit_failed(&self) {
        self.update(|p| p.send_errs += 1);
    }
}

/// One caller on a physical channel: send, wait for the reply, send again.
fn call(app: &Rc<App>, ch: &Rc<XrdmaChannel>) {
    let (size, sent_at) = app.begin();
    let (a, c) = (app.clone(), ch.clone());
    let sent = trace::span(Name::Submit, || {
        ch.send_request_size(size, move |_, reply| {
            trace::span(Name::Callback, || {
                if a.complete(size, sent_at, &reply) {
                    call(&a, &c);
                }
            })
        })
    });
    if sent.is_err() {
        app.submit_failed();
    }
}

/// One caller on a logical (multiplexed) channel.
fn call_logical(app: &Rc<App>, lc: &Rc<LogicalChannel>) {
    let (size, sent_at) = app.begin();
    let (a, l) = (app.clone(), lc.clone());
    let sent = trace::span(Name::Submit, || {
        lc.send_request_size(size, move |reply| {
            trace::span(Name::Callback, || {
                if a.complete(size, sent_at, &reply) {
                    call_logical(&a, &l);
                }
            })
        })
    });
    if sent.is_err() {
        app.submit_failed();
    }
}

pub struct Serial {
    world: Rc<World>,
    fabric: Rc<Fabric>,
    app: Rc<App>,
    contexts: Vec<Rc<XrdmaContext>>,
    /// The context every RPC of the workload passes through: its CPU
    /// thread and progress engine are the ones reported.
    focus: usize,
    requesters: Vec<Rc<XrdmaChannel>>,
    responders: Rc<RefCell<Vec<Rc<XrdmaChannel>>>>,
    /// Client mux first, then one per server; empty without multiplexing.
    muxes: Vec<Rc<ChannelMux>>,
    logicals: Vec<Rc<LogicalChannel>>,
    max_in_flight: u64,
    hub: Option<HubGuard>,
}

struct Rig {
    world: Rc<World>,
    fabric: Rc<Fabric>,
    cm: Rc<ConnManager>,
    rng: SimRng,
}

impl Rig {
    fn new(fabric: FabricConfig, seed: u64) -> Rig {
        let world = World::new();
        let rng = SimRng::new(seed);
        let fabric = Fabric::new(world.clone(), fabric, &rng);
        let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
        Rig {
            world,
            fabric,
            cm,
            rng,
        }
    }

    fn context(&self, node: u32, cfg: &XrdmaConfig) -> Rc<XrdmaContext> {
        XrdmaContext::on_new_node(
            &self.fabric,
            &self.cm,
            NodeId(node),
            RnicConfig::default(),
            cfg.clone(),
            &self.rng,
        )
    }

    fn app(&self, request: Request, reply_bytes: Option<u64>) -> Rc<App> {
        Rc::new(App {
            world: self.world.clone(),
            inputs: RefCell::new(self.rng.fork("bench-inputs")),
            request,
            reply_bytes,
            progress: Cell::new(Progress::default()),
            latencies: RefCell::new(Vec::new()),
        })
    }
}

/// Serve `SVC` on `server`: every request is answered from the handler.
fn serve(server: &Rc<XrdmaContext>, app: &Rc<App>, accepted: &Rc<RefCell<Vec<Rc<XrdmaChannel>>>>) {
    let (app, accepted) = (app.clone(), accepted.clone());
    server.listen(SVC, move |ch| {
        let app = app.clone();
        ch.set_on_request(move |ch, request, token| {
            trace::span(Name::Callback, || {
                let len = app.reply_bytes.unwrap_or(request.len);
                if trace::span(Name::Submit, || ch.respond_size(token, len)).is_err() {
                    app.submit_failed();
                }
            })
        });
        accepted.borrow_mut().push(ch);
    });
}

/// Connect `client` to each of `servers` and run the world until every
/// channel is up.
fn connect_all(rig: &Rig, pairs: &[(Rc<XrdmaContext>, u32)]) -> Vec<Rc<XrdmaChannel>> {
    let slots: Vec<Rc<RefCell<Option<Rc<XrdmaChannel>>>>> = pairs
        .iter()
        .map(|(client, server)| {
            let slot = Rc::new(RefCell::new(None));
            let s = slot.clone();
            client.connect(NodeId(*server), SVC, move |r| {
                *s.borrow_mut() = Some(r.expect("connect"));
            });
            slot
        })
        .collect();
    for _ in 0..100 {
        if slots.iter().all(|s| s.borrow().is_some()) {
            break;
        }
        rig.world.run_for(Dur::millis(5));
    }
    slots
        .iter()
        .map(|s| {
            s.borrow()
                .clone()
                .expect("every channel came up within 500 ms")
        })
        .collect()
}

/// The point-to-point shape shared by three workloads: `clients` each open
/// one channel to each of `servers` and keep `depth` RPCs in flight on it.
#[allow(clippy::too_many_arguments)]
fn point_to_point(
    fabric: FabricConfig,
    seed: u64,
    clients: &[u32],
    servers: &[u32],
    focus: u32,
    request: Request,
    reply_bytes: Option<u64>,
    depth: u64,
) -> Serial {
    let rig = Rig::new(fabric, seed);
    let app = rig.app(request, reply_bytes);
    let cfg = XrdmaConfig::default();
    let responders = Rc::new(RefCell::new(Vec::new()));
    let mut contexts = Vec::new();
    let mut node_of = Vec::new();
    for &s in servers {
        let ctx = rig.context(s, &cfg);
        serve(&ctx, &app, &responders);
        contexts.push(ctx);
        node_of.push(s);
    }
    let mut pairs = Vec::new();
    for &c in clients {
        let ctx = rig.context(c, &cfg);
        for &s in servers {
            pairs.push((ctx.clone(), s));
        }
        contexts.push(ctx);
        node_of.push(c);
    }
    let requesters = connect_all(&rig, &pairs);
    for ch in &requesters {
        for _ in 0..depth {
            call(&app, ch);
        }
    }
    rig.world.run_for(Dur::nanos(WARMUP_NS));
    Serial {
        world: rig.world,
        fabric: rig.fabric,
        app,
        focus: node_of
            .iter()
            .position(|&n| n == focus)
            .expect("focus node has a context"),
        contexts,
        max_in_flight: depth * requesters.len() as u64,
        requesters,
        responders,
        muxes: Vec::new(),
        logicals: Vec::new(),
        hub: None,
    }
}

/// What the three 64 B workloads must show.
pub const LOSSLESS_SMALL: Expect = Expect {
    lossless: true,
    large_msg_share: Some(0.0),
    mux_pool_peak: None,
    models_cpu: true,
};

/// `pingpong_qd1`: one channel, one 64 B echo RPC in flight.
pub fn pingpong_qd1(seed: u64) -> Serial {
    point_to_point(
        FabricConfig::pair(),
        seed,
        &[0],
        &[1],
        0,
        Request::Around(64),
        None,
        1,
    )
}

/// `rpc_fanout`: node 0 keeps 8 × 64 B RPCs in flight to each of 32 servers.
pub fn rpc_fanout(seed: u64) -> Serial {
    let servers: Vec<u32> = (1..=32).collect();
    point_to_point(
        FabricConfig::rack(33),
        seed,
        &[0],
        &servers,
        0,
        Request::Around(64),
        Some(64),
        8,
    )
}

/// `incast_bulk`: 16 senders three racks away keep 4 × 128 KiB requests
/// in flight into host 0, PFC and DCQCN on (the library defaults).
pub fn incast_bulk(seed: u64) -> Serial {
    let senders: Vec<u32> = (8..24).collect();
    point_to_point(
        FabricConfig::pod(4, 8, 2),
        seed,
        &senders,
        &[0],
        0,
        Request::Exactly(128 * 1024),
        Some(32),
        4,
    )
}

/// Every request of `incast_bulk` takes the rendezvous path.
pub const LOSSLESS_BULK: Expect = Expect {
    large_msg_share: Some(1.0),
    ..LOSSLESS_SMALL
};

const MUX_SERVERS: u32 = 8;
const MUX_POOL: usize = 64;
const MUX_LANES: u64 = 8;
const MUX_LOGICAL: usize = 100_000;
const MUX_DRIVEN: usize = 2048;

/// `mux_scale`: 100 000 logical channels to 8 servers over a 64-slot
/// pool, 2048 of them (a stride through the population) driven at depth 1.
pub fn mux_scale(seed: u64) -> Serial {
    let rig = Rig::new(FabricConfig::rack(MUX_SERVERS + 1), seed);
    let app = rig.app(Request::Around(64), Some(64));
    let cfg = XrdmaConfig {
        mux_pool: MUX_POOL,
        mux_lanes: MUX_LANES,
        use_srq: true,
        srq_size: 8192,
        // 100 K idle keepalive timers are not what this workload is about.
        keepalive_intv: Dur::millis(10_000),
        ..Default::default()
    };
    let mut contexts = vec![rig.context(0, &cfg)];
    let mut muxes = vec![ChannelMux::new(&contexts[0], SVC)];
    for s in 1..=MUX_SERVERS {
        let ctx = rig.context(s, &cfg);
        let mux = ChannelMux::new(&ctx, SVC);
        let a = app.clone();
        mux.serve(move |_, request, reply| {
            trace::span(Name::Callback, || {
                let Some(reply) = reply else { return };
                let len = a.reply_bytes.unwrap_or(request.len);
                if trace::span(Name::Submit, || reply.reply_size(len)).is_err() {
                    a.submit_failed();
                }
            })
        });
        contexts.push(ctx);
        muxes.push(mux);
    }
    // Stripe the population over the servers so that the peer and the
    // mux's lane hash (lcid % lanes) stay decorrelated: all 64 slots work.
    let peer_of = |i: usize| NodeId(1 + (i as u32 / MUX_LANES as u32) % MUX_SERVERS);
    let logicals: Vec<_> = (0..MUX_LOGICAL)
        .map(|i| muxes[0].open(peer_of(i)))
        .collect();
    let stride = MUX_LOGICAL.div_ceil(MUX_DRIVEN);
    let driven = logicals.iter().step_by(stride).count() as u64;
    for lc in logicals.iter().step_by(stride) {
        call_logical(&app, lc);
    }
    // The first frames establish the pool (one handshake per slot, ~3 ms)
    // before the warm-up proper.
    rig.world.run_for(Dur::millis(8));
    rig.world.run_for(Dur::nanos(WARMUP_NS));
    Serial {
        world: rig.world,
        fabric: rig.fabric,
        app,
        contexts,
        focus: 0,
        requesters: Vec::new(),
        responders: Rc::new(RefCell::new(Vec::new())),
        muxes,
        logicals,
        max_in_flight: driven,
        hub: None,
    }
}

/// `mux_scale` must fill its whole pool.
pub const LOSSLESS_MUX: Expect = Expect {
    mux_pool_peak: Some(MUX_POOL as u64),
    ..LOSSLESS_SMALL
};

impl Serial {
    /// Install the repo's telemetry hub (events + causal spans) on the
    /// warmed-up world. Only the `telemetry`-feature build records into it.
    pub fn install_telemetry(&mut self) {
        self.hub = Some(TelemetryHub::install(
            &self.world,
            HubConfig {
                capture_spans: false,
                ..Default::default()
            },
        ));
    }

    /// `(requesting side, responding side)` physical channels. The mux
    /// owns its pool, so there they are read back from the contexts.
    fn channels(&self) -> (Vec<Rc<XrdmaChannel>>, Vec<Rc<XrdmaChannel>>) {
        if self.muxes.is_empty() {
            return (self.requesters.clone(), self.responders.borrow().clone());
        }
        let servers = self.contexts[1..].iter().flat_map(|c| c.channels());
        (self.contexts[0].channels(), servers.collect())
    }
}

impl Workload for Serial {
    fn advance(&mut self, virt_ns: u64) {
        self.world.run_for(Dur::nanos(virt_ns));
    }

    fn progress(&self) -> Progress {
        self.app.progress.get()
    }

    fn events(&self) -> u64 {
        self.world.events_executed()
    }

    fn pending(&self) -> u64 {
        self.world.pending() as u64
    }

    fn counters(&self) -> Counts {
        let mut c = Counts::new();
        let f = self.fabric.stats().snapshot();
        c.insert("fabric.pkts", f.delivered_pkts);
        c.insert("fabric.bytes", f.delivered_bytes);
        c.insert("fabric.ecn_marked", f.ecn_marked);
        c.insert("fabric.pause_frames", f.pause_frames);
        c.insert("fabric.host_tx_pause", f.host_tx_pause);
        c.insert("fabric.drops", f.drops);
        let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
        for ctx in &self.contexts {
            let r = ctx.rnic().stats();
            add("rnic.doorbells", r.doorbells);
            add("rnic.posted_wrs", r.posted_wrs);
            add("rnic.qp_cache_hits", r.qp_cache_hits);
            add("rnic.qp_cache_misses", r.qp_cache_misses);
            add("rnic.retransmissions", r.retransmissions);
            add("rnic.seq_naks", r.seq_naks);
            add("rnic.rnr_naks", r.rnr_naks_received);
            add("rnic.cnps", r.cnps_sent);
            add("core.dead_channels", ctx.stats().keepalive_failures);
        }
        let focus = &self.contexts[self.focus];
        let s = focus.stats();
        add("core.cq_polls", s.cq_polls);
        add("core.cq_empty_polls", s.cq_empty_polls);
        add("core.cpu_busy_ns", focus.thread().total_busy().as_nanos());
        let (requesting, responding) = self.channels();
        for ch in &requesting {
            let s = ch.stats();
            add("core.req_small", s.small_msgs);
            add("core.req_large", s.large_msgs);
        }
        for ch in requesting.iter().chain(&responding) {
            let s = ch.stats();
            add("core.window_stalls", s.window_stalls);
            add("core.flowctl_queued", s.flowctl_queued);
            add("core.standalone_acks", s.standalone_acks);
            add("core.keepalive_probes", s.keepalive_probes);
        }
        if let Some(mux) = self.muxes.first() {
            let m = mux.stats();
            add("core.mux_queued", m.frames_queued);
            add("core.mux_deferred", m.frames_deferred);
            add("core.mux_evictions", m.evictions);
        }
        c
    }

    fn gauges(&self) -> Counts {
        let mut g = Counts::new();
        g.insert(
            "fabric.max_queue_bytes",
            self.fabric.stats().max_queue_depth(),
        );
        let focus = &self.contexts[self.focus];
        g.insert("core.recv_bytes", focus.stats().memcache_occupied);
        let conns = if self.muxes.is_empty() {
            focus.stats().channels_open
        } else {
            self.logicals.len()
        };
        g.insert("core.conns", conns as u64);
        if let Some(mux) = self.muxes.first() {
            g.insert("core.mux_pool_peak", mux.stats().pool_peak);
        }
        g
    }

    fn reset_latencies(&mut self) {
        self.app.latencies.borrow_mut().clear();
    }

    fn latencies(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.app.latencies.borrow_mut())
    }

    fn max_in_flight(&self) -> u64 {
        self.max_in_flight
    }

    fn telemetry(&self) -> Option<Telemetry> {
        let hub = self.hub.as_ref()?;
        Some(Telemetry {
            events: hub.events().len() as u64,
            stages: hub
                .latency_breakdown()
                .iter()
                .map(|s| (s.stage, s.p50_ns, s.p99_ns))
                .collect(),
        })
    }
}
