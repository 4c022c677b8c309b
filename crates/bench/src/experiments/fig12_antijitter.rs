//! Figure 12: anti-jitter under a production surge — ESSD (a) and X-DB
//! (b) take a ~300 % throughput surge; latency must not follow.
//!
//! Paper claims: "the throughput of ESSD is increased by nearly 300 %.
//! However, thanks to anti-jitter strategies (protocol extension and
//! resource management), the latency has no significant increment during
//! this period." Same for X-DB.

use crate::scenarios::{net, pangu};
use crate::Report;
use xrdma_apps::essd::EssdConfig;
use xrdma_apps::pangu::PanguConfig;
use xrdma_apps::xdb::XdbConfig;
use xrdma_apps::{EssdFrontend, LoadSchedule, XdbFrontend};
use xrdma_core::XrdmaConfig;
use xrdma_fabric::FabricConfig;
use xrdma_sim::Dur;

struct Windows {
    base_rate: f64,
    surge_rate: f64,
    base_lat_us: f64,
    surge_lat_us: f64,
    tput_series: Vec<(f64, f64)>,
    lat_series: Vec<(f64, f64)>,
}

fn windows(tput: Vec<(f64, f64)>, lat: Vec<(f64, f64)>) -> Windows {
    // Schedule (absolute time): 0–1.5 s base, 1.5–3.0 s surge ×3, then base.
    let mean = |rows: &[(f64, f64)], lo: f64, hi: f64| -> f64 {
        let v: Vec<f64> = rows
            .iter()
            .filter(|&&(t, v)| t >= lo && t < hi && v > 0.0)
            .map(|&(_, v)| v)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    Windows {
        base_rate: mean(&tput, 0.7, 1.5),
        surge_rate: mean(&tput, 1.7, 2.9),
        base_lat_us: mean(&lat, 0.7, 1.5),
        surge_lat_us: mean(&lat, 1.7, 2.9),
        tput_series: tput,
        lat_series: lat,
    }
}

/// Per-bucket latency over several front-ends: each later series' non-empty
/// buckets are averaged pairwise into the running value of the first's.
fn merged_latency(mut all: impl Iterator<Item = Vec<(f64, f64)>>) -> Vec<(f64, f64)> {
    let mut out = all.next().expect("at least one front-end");
    for s in all {
        for (i, &(_, v)) in s.iter().enumerate() {
            if i < out.len() && v > 0.0 {
                out[i].1 = (out[i].1 + v) / 2.0;
            }
        }
    }
    out
}

pub fn run() -> Report {
    let n = net(FabricConfig::pod(4, 6, 2), 12);
    let pangu = pangu(
        &n,
        PanguConfig {
            block_servers: 6,
            chunk_servers: 12,
            chunk_service: Dur::micros(30),
            ..Default::default()
        },
        XrdmaConfig::default(),
        Dur::millis(500),
    );

    let schedule =
        LoadSchedule::surge(Dur::millis(1500), Dur::millis(1500), Dur::millis(1500), 3.0);

    // ESSD on blocks 0..3, X-DB on blocks 3..6.
    let essds: Vec<_> = pangu.blocks[..3]
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let fe = EssdFrontend::new(
                b,
                EssdConfig {
                    io_size: 128 * 1024,
                    base_interval: Dur::micros(1500),
                    queue_depth: 128,
                    bucket: Dur::millis(100),
                },
                schedule.clone(),
                n.rng.fork(&format!("essd{i}")),
            );
            fe.run_for(Dur::millis(4000));
            fe
        })
        .collect();
    let xdbs: Vec<_> = pangu.blocks[3..]
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let fe = XdbFrontend::new(
                b,
                XdbConfig {
                    base_interval: Dur::micros(250),
                    queue_depth: 128,
                },
                schedule.clone(),
                n.rng.fork(&format!("xdb{i}")),
            );
            fe.run_for(Dur::millis(4000));
            fe
        })
        .collect();
    n.world.run_for(Dur::millis(4600));

    // Aggregate ESSD series (bandwidth MB/s per 100 ms bucket, latency µs).
    let agg = |rows: Vec<Vec<(f64, f64)>>| -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        for series in rows {
            for (i, (t, v)) in series.into_iter().enumerate() {
                if i >= out.len() {
                    out.push((t, v));
                } else {
                    out[i].1 += v;
                }
            }
        }
        out
    };
    let essd_tput = agg(essds
        .iter()
        .map(|f| {
            f.iops
                .borrow()
                .rows()
                .into_iter()
                .map(|(t, v)| (t, v * 10.0 * 128.0 * 1024.0 / 1e6)) // MB/s
                .collect()
        })
        .collect());
    let e = windows(
        essd_tput,
        merged_latency(essds.iter().map(|f| f.lat_series.borrow().rows())),
    );

    let xdb_tput = agg(xdbs
        .iter()
        .map(|f| {
            f.tps
                .borrow()
                .rows()
                .into_iter()
                .map(|(t, v)| (t, v * 10.0))
                .collect()
        })
        .collect());
    let x = windows(
        xdb_tput,
        merged_latency(xdbs.iter().map(|f| f.lat_series.borrow().rows())),
    );

    let mut rep = Report::new(
        "fig12_antijitter",
        "ESSD / X-DB surge: throughput triples, latency stays flat",
    );
    rep.row(
        "ESSD throughput surge",
        "~300% (≈3x)",
        format!(
            "{:.1}x ({:.0} -> {:.0} MB/s)",
            e.surge_rate / e.base_rate,
            e.base_rate,
            e.surge_rate
        ),
        e.surge_rate / e.base_rate > 2.0,
    );
    rep.row(
        "ESSD latency increment during surge",
        "no significant increment",
        format!(
            "{:.0}% ({:.0} -> {:.0} µs)",
            (e.surge_lat_us / e.base_lat_us - 1.0) * 100.0,
            e.base_lat_us,
            e.surge_lat_us
        ),
        e.surge_lat_us / e.base_lat_us < 1.5,
    );
    rep.row(
        "X-DB throughput surge",
        "~3x",
        format!(
            "{:.1}x ({:.0} -> {:.0} tps)",
            x.surge_rate / x.base_rate,
            x.base_rate,
            x.surge_rate
        ),
        x.surge_rate / x.base_rate > 2.0,
    );
    rep.row(
        "X-DB latency increment during surge",
        "jitter mitigated / stable",
        format!(
            "{:.0}% ({:.0} -> {:.0} µs)",
            (x.surge_lat_us / x.base_lat_us - 1.0) * 100.0,
            x.base_lat_us,
            x.surge_lat_us
        ),
        x.surge_lat_us / x.base_lat_us < 1.5,
    );
    rep.series("essd_tput_mbps", e.tput_series);
    rep.series("essd_lat_us", e.lat_series);
    rep.series("xdb_tps", x.tput_series);
    rep.series("xdb_lat_us", x.lat_series);
    rep
}
