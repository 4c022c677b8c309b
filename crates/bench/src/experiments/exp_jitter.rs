//! §III Issue 2: congestion jitter magnitude. "Serious jitter can incur
//! 70% throughput degradation (from 3.4 GBps to 1.1 GBps) and 2×–15×
//! higher latency" — large messages block the RNIC and DCQCN reacts too
//! late under incast.
//!
//! We reproduce the phenomenon (and that X-RDMA's flow control removes
//! it): throughput time series of an incast with huge unfragmented
//! messages, against the same load with flow control.

use crate::scenarios::run_incast;
use crate::Report;
use rayon::prelude::*;
use xrdma_core::XrdmaConfig;
use xrdma_sim::Dur;

pub fn run() -> Report {
    let senders = 24;
    let span = Dur::millis(800);
    // Mixed small+large traffic suffers when the large transfers are not
    // fragmented: huge messages monopolize the pipe in bursts.
    let mut raw = XrdmaConfig::default();
    raw.flowctl.enabled = false;
    let mut fc = XrdmaConfig::default();
    fc.flowctl.enabled = true;
    fc.flowctl.max_outstanding = 2;

    let runs: Vec<(&str, XrdmaConfig, u64)> =
        vec![("raw-1MB", raw, 1024 * 1024), ("fc-1MB", fc, 1024 * 1024)];
    let outcomes: Vec<_> = runs
        .into_par_iter()
        .map(|(label, cfg, size)| (label, run_incast(cfg, senders, size, 3, span, 33)))
        .collect();
    let raw_o = &outcomes.iter().find(|(l, _)| *l == "raw-1MB").unwrap().1;
    let fc_o = &outcomes.iter().find(|(l, _)| *l == "fc-1MB").unwrap().1;

    // Jitter metric: per-100ms bandwidth variation (peak vs trough after
    // warm-up).
    let stats = |series: &[(f64, f64)]| -> (f64, f64, f64) {
        let vals: Vec<f64> = series
            .iter()
            .skip(2)
            .map(|&(_, v)| v * 8.0 / 0.1 / 1e9)
            .collect();
        let peak = vals.iter().cloned().fold(0.0f64, f64::max);
        let trough = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        (peak, trough, mean)
    };
    let (raw_peak, raw_trough, raw_mean) = stats(&raw_o.bw_series);
    let (_fc_peak, fc_trough, fc_mean) = stats(&fc_o.bw_series);

    println!(
        "raw:  peak {raw_peak:.1} trough {raw_trough:.1} mean {raw_mean:.1} Gbps  cnps={}",
        raw_o.cnps
    );
    println!(
        "fc:   trough {fc_trough:.1} mean {fc_mean:.1} Gbps  cnps={}",
        fc_o.cnps
    );

    let mut rep = Report::new(
        "exp_jitter",
        "congestion jitter from unfragmented large messages (§III issue 2)",
    );
    // Our DCQCN model converges to a steadily depressed rate rather than
    // oscillating hard, so we compare the congested throughput against the
    // healthy (flow-controlled) level — the same quantity the paper's
    // 3.4 GBps → 1.1 GBps compares.
    let degradation = 1.0 - raw_mean / fc_mean.max(1e-9);
    rep.row(
        "throughput degradation under congestion",
        "~70% (3.4 -> 1.1 GBps)",
        format!(
            "{:.0}% ({:.1} -> {:.1} Gbps; raw trough {:.1})",
            degradation * 100.0,
            fc_mean,
            raw_mean,
            raw_trough
        ),
        degradation > 0.25,
    );
    let _ = raw_peak;
    rep.row(
        "flow control smooths the trough",
        "jitter mitigated",
        format!("trough {fc_trough:.1} vs {raw_trough:.1} Gbps"),
        fc_trough > raw_trough,
    );
    rep.row(
        "mean bandwidth with flow control",
        "higher and stable",
        format!("{fc_mean:.1} vs {raw_mean:.1} Gbps"),
        fc_mean > raw_mean,
    );
    rep.series(
        "raw_bw_gbps",
        raw_o
            .bw_series
            .iter()
            .map(|&(t, v)| (t, v * 8.0 / 0.1 / 1e9))
            .collect(),
    );
    rep.series(
        "fc_bw_gbps",
        fc_o.bw_series
            .iter()
            .map(|&(t, v)| (t, v * 8.0 / 0.1 / 1e9))
            .collect(),
    );
    rep
}
