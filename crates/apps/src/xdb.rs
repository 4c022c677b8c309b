//! X-DB front-end model: the MySQL-in-Docker tier of §II-C. Compared to
//! ESSD it is small-write-heavy and latency-sensitive — transaction log
//! appends (a few KiB) dominate, with periodic larger page flushes. Drives
//! Figure 12b.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xrdma_sim::stats::{Histogram, SeriesKind, TimeSeries};
use xrdma_sim::{Dur, SimRng, Time, World};

use crate::pangu::BlockServer;
use crate::workload::LoadSchedule;

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct XdbConfig {
    /// Transaction-log append size.
    pub log_size: u64,
    /// Page-flush size.
    pub flush_size: u64,
    /// Fraction of operations that are flushes.
    pub flush_fraction: f64,
    /// Base mean inter-arrival of transactions.
    pub base_interval: Dur,
    pub queue_depth: u32,
    pub bucket: Dur,
}

impl Default for XdbConfig {
    fn default() -> Self {
        XdbConfig {
            log_size: 8 * 1024,
            flush_size: 256 * 1024,
            flush_fraction: 0.04,
            base_interval: Dur::micros(120),
            queue_depth: 64,
            bucket: Dur::millis(100),
        }
    }
}

/// The X-DB front-end generator for one block server.
pub struct XdbFrontend {
    world: Rc<World>,
    block: Rc<BlockServer>,
    cfg: XdbConfig,
    schedule: LoadSchedule,
    rng: RefCell<SimRng>,
    pub outstanding: Cell<u32>,
    pub completed: Cell<u64>,
    pub dropped: Cell<u64>,
    pub latency: RefCell<Histogram>,
    pub tps: RefCell<TimeSeries>,
    pub lat_series: RefCell<TimeSeries>,
    stop_at: Cell<Time>,
}

impl XdbFrontend {
    pub fn new(
        block: &Rc<BlockServer>,
        cfg: XdbConfig,
        schedule: LoadSchedule,
        rng: SimRng,
    ) -> Rc<XdbFrontend> {
        let world = block.ctx.world().clone();
        Rc::new(XdbFrontend {
            world,
            block: block.clone(),
            tps: RefCell::new(TimeSeries::new(cfg.bucket.as_nanos(), SeriesKind::Sum)),
            lat_series: RefCell::new(TimeSeries::new(cfg.bucket.as_nanos(), SeriesKind::Mean)),
            cfg,
            schedule,
            rng: RefCell::new(rng),
            outstanding: Cell::new(0),
            completed: Cell::new(0),
            dropped: Cell::new(0),
            latency: RefCell::new(Histogram::new()),
            stop_at: Cell::new(Time::MAX),
        })
    }

    pub fn run_for(self: &Rc<Self>, duration: Dur) {
        self.stop_at.set(self.world.now() + duration);
        self.tick();
    }

    fn tick(self: &Rc<Self>) {
        let now = self.world.now();
        if now >= self.stop_at.get() {
            return;
        }
        self.fire();
        let next = {
            let mean = self
                .schedule
                .interval_at(now, self.cfg.base_interval)
                .as_nanos() as f64;
            Dur::nanos(self.rng.borrow_mut().exp(mean))
        };
        let me = self.clone();
        self.world.schedule_in(next, move || me.tick());
    }

    fn fire(self: &Rc<Self>) {
        if self.outstanding.get() >= self.cfg.queue_depth {
            self.dropped.set(self.dropped.get() + 1);
            return;
        }
        let size = if self.rng.borrow_mut().chance(self.cfg.flush_fraction) {
            self.cfg.flush_size
        } else {
            self.cfg.log_size
        };
        self.outstanding.set(self.outstanding.get() + 1);
        let me = self.clone();
        let t0 = self.world.now();
        self.block.submit_write(size, move |ok| {
            me.outstanding.set(me.outstanding.get() - 1);
            if ok {
                me.completed.set(me.completed.get() + 1);
                let now = me.world.now();
                let lat = now.since(t0);
                me.latency.borrow_mut().record(lat.as_nanos());
                me.tps.borrow_mut().record(now.nanos(), 1.0);
                me.lat_series
                    .borrow_mut()
                    .record(now.nanos(), lat.as_micros_f64());
            }
        });
    }

    pub fn p99_us(&self) -> f64 {
        self.latency.borrow().percentile(99.0) as f64 / 1e3
    }
}
