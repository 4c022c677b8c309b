//! Figure 11: production gauges during an online (rolling) upgrade —
//! (a) QP count ramps as restarted servers reconnect, (b) IOPS continues
//! without jitter, (c) the memory cache's occupy/in-use tracks bandwidth.

use crate::scenarios::{net, pangu};
use crate::Report;
use xrdma_apps::essd::EssdConfig;
use xrdma_apps::pangu::PanguConfig;
use xrdma_apps::{EssdFrontend, LoadSchedule};
use xrdma_core::XrdmaConfig;
use xrdma_fabric::FabricConfig;
use xrdma_sim::{Dur, Time};

pub fn run() -> Report {
    let n = net(FabricConfig::pod(4, 6, 2), 5);
    let pangu = pangu(
        &n,
        PanguConfig {
            block_servers: 6,
            chunk_servers: 12,
            ..Default::default()
        },
        XrdmaConfig::default(),
        Dur::millis(500),
    );

    // Steady ESSD-style load on every block server.
    let fes: Vec<_> = pangu
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let fe = EssdFrontend::new(
                b,
                EssdConfig {
                    io_size: 64 * 1024,
                    base_interval: Dur::micros(600),
                    queue_depth: 64,
                    bucket: Dur::millis(100),
                },
                LoadSchedule::steady(),
                n.rng.fork(&format!("fe{i}")),
            );
            fe.run_for(Dur::secs(6));
            fe
        })
        .collect();

    // Sample gauges every 100 ms while rolling-upgrading block servers
    // 2..6 one by one (disconnect + reconnect = the paper's "online
    // upgrading will increase the QP number rapidly").
    let mut qp_series: Vec<(f64, f64)> = Vec::new();
    let mut iops_acc: Vec<(f64, f64)> = Vec::new();
    let mut occ_series: Vec<(f64, f64)> = Vec::new();
    let mut inuse_series: Vec<(f64, f64)> = Vec::new();
    let mut upgraded = 0usize;
    let mut last_completed = 0u64;
    let until = Time::ZERO + Dur::secs(6);
    while n.world.now() < until {
        n.world.run_for(Dur::millis(100));
        let t = n.world.now().as_secs_f64();
        qp_series.push((t, pangu.block_qp_count() as f64));
        let total: u64 = fes.iter().map(|f| f.completed.get()).sum();
        iops_acc.push((t, (total - last_completed) as f64 * 10.0));
        last_completed = total;
        let occ: u64 = pangu
            .blocks
            .iter()
            .map(|b| b.ctx.memcache().occupied_bytes())
            .sum();
        let inuse: u64 = pangu
            .blocks
            .iter()
            .map(|b| b.ctx.memcache().in_use_bytes())
            .sum();
        occ_series.push((t, occ as f64 / 1e6));
        inuse_series.push((t, inuse as f64 / 1e6));

        // Upgrade one server at t = 2.0, 2.8, 3.6, 4.4 s.
        let due = 2.0 + upgraded as f64 * 0.8;
        if upgraded < 4 && t >= due {
            let b = &pangu.blocks[2 + upgraded];
            b.disconnect_all();
            let nodes = pangu.chunk_nodes.clone();
            b.connect_all(nodes, xrdma_apps::pangu::SVC, || {});
            upgraded += 1;
        }
    }

    // Analysis windows (100 ms buckets): steady 1–2 s, upgrade 2–4.5 s.
    let window = |series: &[(f64, f64)], lo: f64, hi: f64| -> Vec<f64> {
        series
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, v)| v)
            .collect()
    };
    let steady_iops = window(&iops_acc, 1.0, 2.0);
    let upgrade_iops = window(&iops_acc, 2.0, 4.5);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let steady_mean = mean(&steady_iops);
    let upgrade_mean = mean(&upgrade_iops);
    let upgrade_min = upgrade_iops.iter().cloned().fold(f64::INFINITY, f64::min);

    let qp_before = window(&qp_series, 1.5, 2.0).last().copied().unwrap_or(0.0);
    let qp_peak = window(&qp_series, 2.0, 5.0)
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);

    let mut rep = Report::new(
        "fig11_production",
        "online upgrade: QP count ramps while IOPS and memcache stay smooth",
    );
    rep.row(
        "QP count ramps during upgrade",
        "rapid increase (Fig 11a)",
        format!("{qp_before:.0} -> peak {qp_peak:.0}"),
        qp_peak >= qp_before,
    );
    rep.row(
        "IOPS holds through upgrade",
        "no harm / no jitter (Fig 11b)",
        format!("steady {steady_mean:.0}, upgrade mean {upgrade_mean:.0}, min {upgrade_min:.0}"),
        upgrade_mean > steady_mean * 0.75,
    );
    let occ_mean = mean(&window(&occ_series, 1.0, 6.0));
    let inuse_mean = mean(&window(&inuse_series, 1.0, 6.0));
    rep.row(
        "memcache occupy >= in-use, both smooth",
        "caches operate smoothly (Fig 11c)",
        format!("occupy {occ_mean:.1} MB >= in-use {inuse_mean:.1} MB"),
        occ_mean >= inuse_mean && inuse_mean > 0.0,
    );
    rep.series("qp_count", qp_series);
    rep.series("iops", iops_acc);
    rep.series("memcache_occupy_mb", occ_series);
    rep.series("memcache_inuse_mb", inuse_series);
    rep
}
