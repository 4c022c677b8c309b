//! Figure 8 + §VII-C establishment: an ESSD cluster restarts its
//! connection mesh and must return to steady-state IOPS rapidly.
//!
//! Paper claims:
//! * with the QP cache (+ cm resolution caching) the cluster is back at
//!   steady state in < 2 s (Fig 8: 6 KOPS with 128 KiB payloads);
//! * during establishment throughput sits far below steady state (§III
//!   Issue 3 reports ~65 % lower on a 64-machine cluster);
//! * the same recovery without the QP cache takes substantially longer
//!   (~3 s vs ~10 s for 4096 connections, reproduced per-connection in
//!   `tab_establishment`).

use crate::scenarios::{net, pangu};
use crate::Report;
use xrdma_apps::essd::EssdConfig;
use xrdma_apps::pangu::PanguConfig;
use xrdma_apps::{EssdFrontend, LoadSchedule};
use xrdma_core::XrdmaConfig;
use xrdma_fabric::FabricConfig;
use xrdma_sim::Dur;

struct Outcome {
    steady_iops: f64,
    ramp_iops: f64,
    recovery_s: f64,
    series: Vec<(f64, f64)>,
}

/// Run the restart scenario with or without the QP cache.
fn trial(qp_cache: usize, seed: u64) -> Outcome {
    let n = net(FabricConfig::pod(4, 8, 2), seed);
    let mut cfg = XrdmaConfig::default();
    cfg.qp_cache = qp_cache.max(1) * 512; // pool sized for the dense mesh
    if qp_cache == 0 {
        cfg.qp_cache = 0;
    }
    let pangu = pangu(
        &n,
        PanguConfig {
            block_servers: 8,
            chunk_servers: 16,
            // Per-thread meshes: 16 peers × 24 channels = 384 connections
            // per block server — the paper's thousands-of-connections
            // regime, scaled.
            channels_per_peer: 24,
            // Chunk persistence dominates: cluster capacity is what the
            // recovering mesh must climb back to.
            chunk_service: Dur::micros(400),
        },
        cfg,
        Dur::secs(2),
    );

    // Steady ESSD load: 128 KiB writes, open loop.
    let fes: Vec<_> = pangu
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let fe = EssdFrontend::new(
                b,
                EssdConfig {
                    io_size: 128 * 1024,
                    base_interval: Dur::micros(1300),
                    queue_depth: 64,
                    bucket: Dur::millis(100),
                },
                LoadSchedule::steady(),
                n.rng.fork(&format!("essd{i}")),
            );
            fe.run_for(Dur::secs(12));
            fe
        })
        .collect();
    n.world.run_for(Dur::secs(1)); // reach steady state

    // Restart: tear the whole mesh down, then reconnect.
    for b in &pangu.blocks {
        b.disconnect_all();
    }
    // On a cold restart the QP pools are empty too.
    if qp_cache == 0 {
        n.cm.forget_resolution();
    }
    n.world.run_for(Dur::millis(20));
    let t_restart = n.world.now();
    let nodes = pangu.chunk_nodes.clone();
    for b in &pangu.blocks {
        b.connect_all_dup(
            nodes.clone(),
            xrdma_apps::pangu::SVC,
            pangu.cfg.channels_per_peer,
            || {},
        );
    }
    n.world.run_for(Dur::secs(6));

    // Aggregate IOPS series across front-ends (100 ms buckets).
    let mut agg: Vec<(f64, f64)> = Vec::new();
    for fe in &fes {
        for (i, (t, v)) in fe.iops.borrow().rows().into_iter().enumerate() {
            if i >= agg.len() {
                agg.push((t, v * 10.0)); // per-second rate
            } else {
                agg[i].1 += v * 10.0;
            }
        }
    }
    // Steady IOPS: the second before the restart.
    let rb = (t_restart.nanos() / 100_000_000) as usize;
    let steady: f64 = agg[rb.saturating_sub(10)..rb]
        .iter()
        .map(|&(_, v)| v)
        .sum::<f64>()
        / 10.0;
    // Ramp IOPS: the establishment window itself (the first 200 ms after
    // the restart, i.e. while the mesh is still partial).
    let ramp: f64 = agg[rb..(rb + 2).min(agg.len())]
        .iter()
        .map(|&(_, v)| v)
        .sum::<f64>()
        / 2.0;
    // Recovery: first bucket after restart where IOPS is back at ≥90 % of
    // steady and stays there for 3 consecutive buckets.
    let vals: Vec<f64> = agg[rb..].iter().map(|&(_, v)| v).collect();
    let rec = (0..vals.len().saturating_sub(3))
        .find(|&i| vals[i..i + 3].iter().all(|&v| v >= steady * 0.9))
        .map(|i| i as f64 * 0.1)
        .unwrap_or(f64::INFINITY);
    Outcome {
        steady_iops: steady,
        ramp_iops: ramp,
        recovery_s: rec,
        series: agg,
    }
}

pub fn run() -> Report {
    let warm = trial(64, 1);
    let cold = trial(0, 1);

    let mut rep = Report::new(
        "fig8_establishment",
        "ESSD restart: aggregate IOPS ramp back to steady state",
    );
    rep.row(
        "steady-state aggregate IOPS",
        "~6 KOPS (their 64-node cluster)",
        format!("{:.0} IOPS (24-node sim)", warm.steady_iops),
        warm.steady_iops > 1000.0,
    );
    rep.row(
        "recovery to 90% steady (QP cache)",
        "< 2 s",
        format!("{:.1} s", warm.recovery_s),
        warm.recovery_s < 2.0,
    );
    rep.row(
        "throughput during establishment",
        "~65% below steady",
        format!(
            "{:.0}% below",
            (1.0 - warm.ramp_iops / warm.steady_iops) * 100.0
        ),
        warm.ramp_iops < warm.steady_iops * 0.8,
    );
    rep.row(
        "cold restart slower than warm",
        "~3.3x (3 s vs 10 s for 4096 conns)",
        format!(
            "{:.1}x ({:.1}s vs {:.1}s)",
            cold.recovery_s / warm.recovery_s.max(0.01),
            warm.recovery_s,
            cold.recovery_s
        ),
        cold.recovery_s > warm.recovery_s,
    );
    rep.series("iops_warm", warm.series);
    rep.series("iops_cold", cold.series);
    rep
}
