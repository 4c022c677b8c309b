//! Shared experiment scaffolding: world/fabric/context builders and the
//! incast driver reused across the figure harnesses.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_apps::pangu::{Pangu, PanguConfig};
use xrdma_core::{XrdmaChannel, XrdmaConfig, XrdmaContext};
use xrdma_fabric::{Fabric, FabricConfig, NodeId};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};

/// A constructed simulation network.
pub struct Net {
    pub world: Rc<World>,
    pub fabric: Rc<Fabric>,
    pub cm: Rc<ConnManager>,
    pub rng: SimRng,
}

pub fn net(fcfg: FabricConfig, seed: u64) -> Net {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), fcfg, &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    Net {
        world,
        fabric,
        cm,
        rng,
    }
}

pub fn ctx(net: &Net, node: u32, cfg: XrdmaConfig) -> Rc<XrdmaContext> {
    ctx_with(net, node, RnicConfig::default(), cfg)
}

pub fn ctx_with(net: &Net, node: u32, rnic: RnicConfig, cfg: XrdmaConfig) -> Rc<XrdmaContext> {
    XrdmaContext::on_new_node(&net.fabric, &net.cm, NodeId(node), rnic, cfg, &net.rng)
}

/// Deploy a Pangu cluster with default RNICs on `net` and run `settle`,
/// by which its connection mesh must be complete.
pub fn pangu(net: &Net, pcfg: PanguConfig, cfg: XrdmaConfig, settle: Dur) -> Pangu {
    let pangu = Pangu::deploy(
        &net.fabric,
        &net.cm,
        pcfg,
        RnicConfig::default(),
        cfg,
        &net.rng,
    );
    net.world.run_for(settle);
    assert!(pangu.mesh_complete());
    pangu
}

/// A channel that appears once its connect completes.
pub type ChSlot = Rc<RefCell<Option<Rc<XrdmaChannel>>>>;

/// Start connecting `client` to `peer`'s service `svc`; the slot fills
/// when the channel is established.
pub fn connect_slot(client: &Rc<XrdmaContext>, peer: NodeId, svc: u16) -> ChSlot {
    let slot = ChSlot::default();
    let s2 = slot.clone();
    client.connect(peer, svc, move |r| {
        *s2.borrow_mut() = Some(r.expect("connect"));
    });
    slot
}

/// Keep one `size`-byte RPC in flight on `ch`: every response is counted
/// in `done` and sends the next request.
fn pump(ch: &Rc<XrdmaChannel>, size: u64, done: &Rc<Cell<u64>>) {
    let c2 = ch.clone();
    let d2 = done.clone();
    ch.send_request_size(size, move |_, _| {
        d2.set(d2.get() + 1);
        pump(&c2, size, &d2);
    })
    .ok();
}

/// Connect and return both channel ends (runs the world up to 20 ms).
pub fn connect_pair(
    net: &Net,
    client: &Rc<XrdmaContext>,
    server: &Rc<XrdmaContext>,
    svc: u16,
) -> (Rc<XrdmaChannel>, Rc<XrdmaChannel>) {
    let sch = ChSlot::default();
    let s2 = sch.clone();
    server.listen(svc, move |ch| *s2.borrow_mut() = Some(ch));
    let cch = connect_slot(client, server.node(), svc);
    net.world.run_for(Dur::millis(20));
    let c = cch.borrow().clone().expect("client side");
    let s = sch.borrow().clone().expect("server side");
    (c, s)
}

/// Result of one incast run.
pub struct IncastOutcome {
    pub delivered_bytes: u64,
    pub elapsed: Dur,
    pub cnps: u64,
    pub pause_frames: u64,
    pub host_tx_pause: u64,
    pub ecn_marks: u64,
    /// Per-100ms delivered-bytes series for the bandwidth plot.
    pub bw_series: Vec<(f64, f64)>,
    /// Telemetry run log: every protocol-level event the stack emitted,
    /// ready for the exporters in `xrdma_telemetry::export`.
    pub events: Vec<xrdma_telemetry::Event>,
}

impl IncastOutcome {
    pub fn goodput_gbps(&self) -> f64 {
        self.delivered_bytes as f64 * 8.0 / self.elapsed.as_secs_f64().max(1e-9) / 1e9
    }
}

/// Drive `senders` hosts pipelining `msg_bytes` requests into host 0 for
/// `span`, with per-sender pipeline depth `depth`.
pub fn run_incast(
    cfg: XrdmaConfig,
    senders: u32,
    msg_bytes: u64,
    depth: u32,
    span: Dur,
    seed: u64,
) -> IncastOutcome {
    let net = &net(FabricConfig::rack(senders + 1), seed);
    let hub =
        xrdma_telemetry::TelemetryHub::install(&net.world, xrdma_telemetry::HubConfig::default());
    let sink = ctx(net, 0, cfg.clone());
    let received = Rc::new(Cell::new(0u64));
    let series = Rc::new(RefCell::new(xrdma_sim::stats::TimeSeries::new(
        Dur::millis(100).as_nanos(),
        xrdma_sim::stats::SeriesKind::Sum,
    )));
    let r = received.clone();
    let ser = series.clone();
    let w = net.world.clone();
    sink.listen(9, move |ch| {
        let r2 = r.clone();
        let ser2 = ser.clone();
        let w2 = w.clone();
        ch.set_on_request(move |ch2, msg, tok| {
            r2.set(r2.get() + msg.len);
            ser2.borrow_mut().record(w2.now().nanos(), msg.len as f64);
            ch2.respond_size(tok, 32).ok();
        });
    });
    let mut all = Vec::new();
    for i in 1..=senders {
        let c = ctx(net, i, cfg.clone());
        let slot = connect_slot(&c, NodeId(0), 9);
        all.push((c, slot));
    }
    net.world.run_for(Dur::millis(100));

    let responses = Rc::new(Cell::new(0u64));
    for (_, slot) in &all {
        let ch = slot.borrow().clone().expect("connected");
        for _ in 0..depth {
            pump(&ch, msg_bytes, &responses);
        }
    }
    let start = net.world.now();
    net.world.run_for(span);
    let elapsed = net.world.now().since(start);
    let c = net.fabric.stats().snapshot();
    let cnps: u64 = all
        .iter()
        .map(|(c, _)| c.rnic().stats().cnps_received)
        .sum();
    let bw_series = series.borrow().rows();
    IncastOutcome {
        delivered_bytes: received.get(),
        elapsed,
        cnps,
        pause_frames: c.pause_frames,
        host_tx_pause: c.host_tx_pause,
        ecn_marks: c.ecn_marked,
        bw_series,
        events: hub.events(),
    }
}
