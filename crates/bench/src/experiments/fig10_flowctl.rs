//! Figure 10: flow control under incast — bandwidth and CNP series for
//! 64 KiB, 128 KiB and 128 KiB-with-flow-control payloads.
//!
//! Paper claims:
//! * flow control (fragmentation + outstanding-WR queuing) improves
//!   bandwidth by ~24 % on the 128 KiB incast;
//! * average CNP count drops to 1–2 % of the uncontrolled run;
//! * TX pause frames go to nearly zero.

use crate::report::gbps;
use crate::scenarios::{run_incast, IncastOutcome};
use crate::Report;
use rayon::prelude::*;
use xrdma_core::XrdmaConfig;
use xrdma_sim::Dur;

fn cfg(fc: bool) -> XrdmaConfig {
    let mut cfg = XrdmaConfig::default();
    cfg.flowctl.enabled = fc;
    // §V-C queuing: keep outstanding data near the BDP of the victim link
    // so the bottleneck queue stays under the ECN/PFC thresholds.
    cfg.flowctl.max_outstanding = 2;
    cfg
}

pub fn run() -> Report {
    // The paper's scenario scaled to simulation: many connections
    // converging on one node with large transfers.
    let senders = 24;
    let span = Dur::millis(500);
    let runs: Vec<(&str, XrdmaConfig, u64)> = vec![
        ("64KB", cfg(false), 64 * 1024),
        ("128KB", cfg(false), 128 * 1024),
        ("128KB-fc", cfg(true), 128 * 1024),
    ];
    let outcomes: Vec<(&str, IncastOutcome)> = runs
        .into_par_iter()
        .map(|(label, cfg, size)| (label, run_incast(cfg, senders, size, 4, span, 42)))
        .collect();

    let get =
        |label: &str| -> &IncastOutcome { &outcomes.iter().find(|(l, _)| *l == label).unwrap().1 };
    let k64 = get("64KB");
    let k128 = get("128KB");
    let k128fc = get("128KB-fc");

    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "payload", "goodput", "CNPs", "pauses", "host-pauses", "ECN"
    );
    for (label, o) in &outcomes {
        println!(
            "{:<10} {:>9.2} Gb {:>10} {:>10} {:>12} {:>10}",
            label,
            o.goodput_gbps(),
            o.cnps,
            o.pause_frames,
            o.host_tx_pause,
            o.ecn_marks
        );
    }

    let mut rep = Report::new(
        "fig10_flowctl",
        "incast: bandwidth / CNP / TX-pause with and without flow control",
    );
    let bw_gain = k128fc.goodput_gbps() / k128.goodput_gbps() - 1.0;
    rep.row(
        "bandwidth improvement (128KB-fc vs 128KB)",
        "~24%",
        format!(
            "{:.0}% ({} -> {})",
            bw_gain * 100.0,
            gbps(k128.goodput_gbps()),
            gbps(k128fc.goodput_gbps())
        ),
        bw_gain > 0.10,
    );
    let cnp_ratio = k128fc.cnps as f64 / k128.cnps.max(1) as f64;
    rep.row(
        "CNP count with fc",
        "1-2% of baseline",
        format!(
            "{:.1}% ({} -> {})",
            cnp_ratio * 100.0,
            k128.cnps,
            k128fc.cnps
        ),
        cnp_ratio < 0.10,
    );
    rep.row(
        "TX pause frames with fc",
        "nearly zero",
        format!("{} -> {}", k128.host_tx_pause, k128fc.host_tx_pause),
        k128fc.host_tx_pause <= k128.host_tx_pause.max(1) / 5,
    );
    rep.row(
        "large messages congest worse than moderate",
        "128KB suffers vs 64KB (jitter §III)",
        format!(
            "{} vs {}",
            gbps(k128.goodput_gbps()),
            gbps(k64.goodput_gbps())
        ),
        k128.goodput_gbps() <= k64.goodput_gbps() * 1.1,
    );
    rep.series(
        "bw_64KB",
        k64.bw_series
            .iter()
            .map(|&(t, v)| (t, v * 8.0 / 0.1 / 1e9))
            .collect(),
    );
    rep.series(
        "bw_128KB",
        k128.bw_series
            .iter()
            .map(|&(t, v)| (t, v * 8.0 / 0.1 / 1e9))
            .collect(),
    );
    rep.series(
        "bw_128KB_fc",
        k128fc
            .bw_series
            .iter()
            .map(|&(t, v)| (t, v * 8.0 / 0.1 / 1e9))
            .collect(),
    );
    // Telemetry artifacts: a Chrome trace_event dump of the congested
    // 128 KiB run, plus CNP and TX-pause rate series for both 128 KiB
    // variants.
    for (label, o) in [("128KB", k128), ("128KB_fc", k128fc)] {
        rep.series(
            &format!("cnp_rate_{label}"),
            xrdma_telemetry::export::event_rate_series(&o.events, "cnp", Dur::millis(10)),
        );
        rep.series(
            &format!("pfc_xoff_rate_{label}"),
            xrdma_telemetry::export::event_rate_series(&o.events, "pfc-xoff", Dur::millis(10)),
        );
    }
    rep.attach_file(
        "fig10_flowctl.trace.json",
        xrdma_telemetry::export::chrome_trace(&k128.events),
    );
    println!(
        "telemetry: {} events captured on the 128KB run",
        k128.events.len()
    );
    rep
}
