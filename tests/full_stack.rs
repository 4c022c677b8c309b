//! Whole-stack scenario tests: a Pangu cluster with ESSD/X-DB front-ends,
//! the monitor attached, faults injected — everything running together,
//! the way the production evaluation (§VII-E) exercises the middleware.

use std::rc::Rc;

use xrdma_analysis::monitor::Monitor;
use xrdma_analysis::{xrstat, Filter};
use xrdma_apps::essd::EssdConfig;
use xrdma_apps::pangu::{Pangu, PanguConfig};
use xrdma_apps::xdb::XdbConfig;
use xrdma_apps::{EssdFrontend, LoadSchedule, XdbFrontend};
use xrdma_core::XrdmaConfig;
use xrdma_fabric::{Fabric, FabricConfig};
use xrdma_rnic::{CmConfig, ConnManager, RnicConfig};
use xrdma_sim::{Dur, SimRng, World};

fn cluster(seed: u64, keepalive_ms: u64) -> (Rc<World>, Rc<Fabric>, Pangu, SimRng) {
    let world = World::new();
    let rng = SimRng::new(seed);
    let fabric = Fabric::new(world.clone(), FabricConfig::pod(4, 4, 2), &rng);
    let cm = ConnManager::new(world.clone(), CmConfig::default(), rng.fork("cm"));
    let mut cfg = XrdmaConfig::default();
    cfg.keepalive_intv = Dur::millis(keepalive_ms);
    cfg.timer_period = Dur::millis(5);
    let mut rnic_cfg = RnicConfig::default();
    rnic_cfg.retx_timeout = Dur::millis(5);
    rnic_cfg.retry_count = 3;
    let pangu = Pangu::deploy(
        &fabric,
        &cm,
        PanguConfig {
            block_servers: 4,
            chunk_servers: 8,
            ..Default::default()
        },
        rnic_cfg,
        cfg,
        &rng,
    );
    world.run_for(Dur::millis(300));
    assert!(pangu.mesh_complete());
    (world, fabric, pangu, rng)
}

#[test]
fn mixed_frontends_under_monitor() {
    let (world, _fabric, pangu, rng) = cluster(1, 100);
    let monitor = Monitor::new(world.clone(), Dur::millis(50));
    for b in &pangu.blocks {
        monitor.track(&b.ctx);
    }
    let essd = EssdFrontend::new(
        &pangu.blocks[0],
        EssdConfig::default(),
        LoadSchedule::steady(),
        rng.fork("essd"),
    );
    essd.run_for(Dur::secs(1));
    let xdb = XdbFrontend::new(
        &pangu.blocks[1],
        XdbConfig::default(),
        LoadSchedule::steady(),
        rng.fork("xdb"),
    );
    xdb.run_for(Dur::secs(1));
    world.run_for(Dur::millis(1200));

    assert!(essd.completed.get() > 1000, "essd {}", essd.completed.get());
    assert!(xdb.completed.get() > 4000, "xdb {}", xdb.completed.get());
    assert_eq!(
        pangu.chunk_writes.get(),
        3 * (essd.completed.get() + xdb.completed.get()),
        "every write 3-replicated"
    );
    // Monitor saw throughput on both tracked block servers.
    let s0 = monitor.samples_for(0);
    assert!(s0.last().unwrap().bytes_tx > 10_000_000);
    // No RNR, no keepalive failures: a healthy cluster.
    for b in &pangu.blocks {
        assert_eq!(b.ctx.rnic().stats().rnr_naks_sent, 0);
        assert_eq!(b.ctx.stats().keepalive_failures, 0);
    }
    // Latency sane for 128 KiB 3-replica writes.
    let p99 = essd.p99_us();
    assert!((100.0..20_000.0).contains(&p99), "essd p99 {p99} µs");
}

#[test]
fn chunk_server_crash_degrades_then_recovers() {
    let (world, _fabric, pangu, rng) = cluster(2, 20);
    let essd = EssdFrontend::new(
        &pangu.blocks[0],
        EssdConfig {
            base_interval: Dur::micros(1000),
            ..Default::default()
        },
        LoadSchedule::steady(),
        rng.fork("essd"),
    );
    essd.run_for(Dur::secs(2));
    world.run_for(Dur::millis(500));
    let before = essd.completed.get();
    assert!(before > 100);

    // Kill two chunk servers.
    pangu.chunk_ctxs[0].rnic().crash();
    pangu.chunk_ctxs[1].rnic().crash();
    world.run_for(Dur::millis(500));
    // Keepalive reaped the dead channels on every block server.
    for b in &pangu.blocks {
        assert_eq!(b.chunk_channels(), 6, "8 - 2 dead");
        assert!(b.ctx.stats().keepalive_failures >= 2);
    }
    // Writes continue on the surviving replicas.
    let mid = essd.completed.get();
    world.run_for(Dur::millis(500));
    assert!(essd.completed.get() > mid + 100, "throughput continues");
    // In-flight writes at crash time may have failed, but bounded.
    let failed: u64 = pangu.blocks.iter().map(|b| b.failed.get()).sum();
    assert!(failed < 64, "failures bounded to in-flight: {failed}");
}

#[test]
fn packet_loss_on_a_chunk_server_is_transparent() {
    let (world, _fabric, pangu, rng) = cluster(3, 100);
    // 2% receive loss at one chunk server. (Go-back-N restarts the whole
    // message on any drop, so loss rates far above what a PFC fabric ever
    // produces would legitimately exhaust the retry budget.)
    let filter = Filter::install(pangu.chunk_ctxs[2].rnic(), rng.fork("filter"));
    filter.drop_rate(None, 0.02);
    let essd = EssdFrontend::new(
        &pangu.blocks[0],
        EssdConfig {
            io_size: 32 * 1024,
            base_interval: Dur::millis(2),
            queue_depth: 8,
            ..Default::default()
        },
        LoadSchedule::steady(),
        rng.fork("essd"),
    );
    essd.run_for(Dur::secs(1));
    world.run_for(Dur::secs(3));
    assert!(filter.dropped() > 10, "loss actually injected");
    assert!(
        essd.completed.get() > 300,
        "replication path rode through the loss: {}",
        essd.completed.get()
    );
    assert_eq!(
        pangu.blocks.iter().map(|b| b.failed.get()).sum::<u64>(),
        0,
        "no write failed"
    );
    // Retransmissions did the recovery.
    let retx: u64 = pangu
        .blocks
        .iter()
        .map(|b| b.ctx.rnic().stats().retransmissions)
        .sum();
    assert!(retx > 0);
}

#[test]
fn surge_schedule_shifts_load() {
    let (world, _fabric, pangu, rng) = cluster(4, 100);
    // 3× surge in the middle — the Fig 12 shape.
    let schedule = LoadSchedule::surge(Dur::millis(400), Dur::millis(400), Dur::millis(400), 3.0);
    let essd = EssdFrontend::new(
        &pangu.blocks[0],
        EssdConfig {
            io_size: 32 * 1024,
            base_interval: Dur::micros(400),
            queue_depth: 64,
            bucket: Dur::millis(100),
        },
        schedule,
        rng.fork("essd"),
    );
    essd.run_for(Dur::millis(1200));
    world.run_for(Dur::millis(1400));
    let rows = essd.iops.borrow().rows();
    assert!(rows.len() >= 12);
    // The schedule runs on absolute time: surge ×3 spans 400–800 ms
    // (buckets 4..7); the tail at 1× spans 800–1200 ms (buckets 8..11).
    let surge = essd.mean_iops(4, 7);
    let tail = essd.mean_iops(8, 11);
    assert!(
        surge > tail * 2.0,
        "surge visible: surge {surge:.0} IOPS vs tail {tail:.0} IOPS"
    );
    // Anti-jitter: p99 stays bounded through the surge.
    let p99 = essd.p99_us();
    assert!(p99 < 50_000.0, "p99 {p99} µs stayed sane through the surge");
}

#[test]
fn xrstat_snapshot_of_a_loaded_cluster() {
    let (world, fabric, pangu, rng) = cluster(5, 100);
    let xdb = XdbFrontend::new(
        &pangu.blocks[0],
        XdbConfig::default(),
        LoadSchedule::steady(),
        rng.fork("xdb"),
    );
    xdb.run_for(Dur::millis(500));
    world.run_for(Dur::millis(700));
    let rows = xrstat::connection_table(&pangu.blocks[0].ctx);
    assert_eq!(rows.len(), 8, "one row per chunk channel");
    let total_sent: u64 = rows.iter().map(|r| r.msgs_sent).sum();
    assert!(total_sent as f64 >= 3.0 * xdb.completed.get() as f64 * 0.99);
    let health = xrstat::health(&pangu.blocks[0].ctx);
    assert!(health.registered_mb > 0.0);
    assert_eq!(health.rnr_naks_sent, 0);
    let fh = xrstat::fabric_health(&fabric);
    assert!(fh.contains("drops=0"), "lossless under normal load: {fh}");
}
