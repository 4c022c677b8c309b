//! The centralized monitor (§VI-B, Fig 6): collects per-machine gauges on
//! a fixed period and exports them as time series / JSON — the data source
//! behind Figures 3, 11 and 12.
//!
//! When a [`xrdma_telemetry::TelemetryHub`] is installed on the thread,
//! every sample is additionally mirrored into the hub's metrics registry
//! as `n<node>.*` gauges, so hub consumers see the monitor's view without
//! a second collection pass.

use std::cell::RefCell;
use std::rc::Rc;

use serde::Serialize;
use xrdma_core::XrdmaContext;
use xrdma_sim::stats::{SeriesKind, TimeSeries};
use xrdma_sim::{Dur, World};

/// One sampled machine snapshot.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Sample {
    pub t_ns: u64,
    pub node: u32,
    pub qp_count: usize,
    pub channels: usize,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    pub memcache_occupied: u64,
    pub memcache_in_use: u64,
    pub rnr_naks: u64,
    pub cnps_received: u64,
    pub pfc_pauses_seen: u64,
    pub poll_gap_warnings: u64,
}

/// Per-context tracked transmit series (bytes per bucket; deltas
/// converted to rates downstream).
struct Tracked {
    ctx: Rc<XrdmaContext>,
    last_bytes_tx: u64,
    tx_series: TimeSeries,
}

/// The monitor: attach contexts, run the world, read the series.
pub struct Monitor {
    world: Rc<World>,
    period: Dur,
    tracked: RefCell<Vec<Tracked>>,
    samples: RefCell<Vec<Sample>>,
    running: std::cell::Cell<bool>,
    /// The periodic sampling timer; holding it keeps the sweep armed.
    timer: RefCell<Option<xrdma_sim::Timer>>,
}

impl Monitor {
    pub fn new(world: Rc<World>, period: Dur) -> Rc<Monitor> {
        Rc::new(Monitor {
            world,
            period,
            tracked: RefCell::new(Vec::new()),
            samples: RefCell::new(Vec::new()),
            running: std::cell::Cell::new(false),
            timer: RefCell::new(None),
        })
    }

    /// Track a context's gauges.
    pub fn track(self: &Rc<Self>, ctx: &Rc<XrdmaContext>) {
        let bucket = self.period.as_nanos();
        self.tracked.borrow_mut().push(Tracked {
            ctx: ctx.clone(),
            last_bytes_tx: 0,
            tx_series: TimeSeries::new(bucket, SeriesKind::Sum),
        });
        self.start();
    }

    fn start(self: &Rc<Self>) {
        if self.running.replace(true) {
            return;
        }
        // One periodic timer for the sampler's lifetime: the closure is
        // boxed once and the kernel re-arms it after each sweep, in the
        // same event order the old self-rescheduling closure produced.
        // Weak capture so the slab slot does not pin the monitor (and the
        // world) in an Rc cycle.
        let me = Rc::downgrade(self);
        let timer = self.world.periodic(self.period, move || {
            if let Some(me) = me.upgrade() {
                me.sample_all();
            }
        });
        timer.arm_in(self.period);
        *self.timer.borrow_mut() = Some(timer);
    }

    fn sample_all(&self) {
        let now = self.world.now().nanos();
        let mut tracked = self.tracked.borrow_mut();
        for t in tracked.iter_mut() {
            let rs = t.ctx.rnic().stats();
            let cs = t.ctx.stats();
            let tx_delta = rs.data_bytes_tx - t.last_bytes_tx;
            t.last_bytes_tx = rs.data_bytes_tx;
            t.tx_series.record(now, tx_delta as f64);
            let node = t.ctx.node().0;
            xrdma_telemetry::hub::with_active(|hub| {
                let m = hub.metrics();
                m.gauge_set(&format!("n{node}.qp_count"), t.ctx.rnic().qp_count() as f64);
                m.gauge_set(&format!("n{node}.bytes_tx"), rs.data_bytes_tx as f64);
                m.gauge_set(&format!("n{node}.bytes_rx"), rs.data_bytes_rx as f64);
                m.gauge_set(
                    &format!("n{node}.memcache_occupied"),
                    cs.memcache_occupied as f64,
                );
                m.gauge_set(&format!("n{node}.cnps_rx"), rs.cnps_received as f64);
                // Shared-CQ and doorbell efficiency counters (ISSUE 7): raw
                // CQ-side numbers come straight off the queue, send-side
                // coalescing off the RNIC, so xr-stat and exported series
                // can compute wakeup- and postlist-coalescing factors.
                let cq = t.ctx.cq();
                m.gauge_set(&format!("n{node}.cq_polls"), cq.polls() as f64);
                m.gauge_set(&format!("n{node}.cq_empty_polls"), cq.empty_polls() as f64);
                m.gauge_set(
                    &format!("n{node}.cq_notify_fires"),
                    cq.notify_fires() as f64,
                );
                m.gauge_set(&format!("n{node}.doorbells"), rs.doorbells as f64);
                m.gauge_set(&format!("n{node}.posted_wrs"), rs.posted_wrs as f64);
            });
            self.samples.borrow_mut().push(Sample {
                t_ns: now,
                node,
                qp_count: t.ctx.rnic().qp_count(),
                channels: cs.channels_open,
                bytes_tx: rs.data_bytes_tx,
                bytes_rx: rs.data_bytes_rx,
                memcache_occupied: cs.memcache_occupied,
                memcache_in_use: cs.memcache_in_use,
                rnr_naks: rs.rnr_naks_received,
                cnps_received: rs.cnps_received,
                pfc_pauses_seen: rs.pfc_pauses_seen,
                poll_gap_warnings: cs.poll_gap_warnings,
            });
        }
    }

    /// All raw samples.
    pub fn samples(&self) -> Vec<Sample> {
        self.samples.borrow().clone()
    }

    /// Samples for one node.
    pub fn samples_for(&self, node: u32) -> Vec<Sample> {
        self.samples
            .borrow()
            .iter()
            .filter(|s| s.node == node)
            .copied()
            .collect()
    }

    /// Per-bucket transmit throughput rows `(t_secs, bytes)` for the i-th
    /// tracked context.
    pub fn tx_rows(&self, i: usize) -> Vec<(f64, f64)> {
        self.tracked.borrow()[i].tx_series.rows()
    }

    /// JSON export of all samples (the production monitor's feed).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&*self.samples.borrow()).expect("samples serialize")
    }
}
