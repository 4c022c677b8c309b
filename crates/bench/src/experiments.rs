//! The experiments, one module each, and the registry the `paper` binary
//! runs them from.
//!
//! Each module's `run()` builds its simulated testbed, prints its own
//! progress table, and returns the paper-vs-measured rows plus plot
//! series as a [`Report`]; writing it out is the caller's job.

use crate::Report;

#[cfg(feature = "faults")]
pub mod chaos_recovery;
pub mod exp_ablation;
pub mod exp_dct;
pub mod exp_jitter;
pub mod exp_lossy;
pub mod exp_memmode;
pub mod exp_qp_scalability;
pub mod exp_srq;
pub mod fig10_flowctl;
pub mod fig11_production;
pub mod fig12_antijitter;
pub mod fig7_latency;
pub mod fig8_establishment;
pub mod fig9_rnr;
#[cfg(feature = "telemetry")]
pub mod latbreak;
pub mod msgrate;
pub mod qpscale;
pub mod tab_establishment;
pub mod tab_loc;

/// How this build runs one registered experiment.
pub enum Entry {
    Run(fn() -> Report),
    /// Needs this `xrdma-bench` cargo feature, which the build lacks.
    Needs(&'static str),
}

// A glob, because which variants a build names depends on its features.
use Entry::*;

/// Every experiment, in the order `paper all` runs them.
pub const EXPERIMENTS: &[(&str, Entry)] = &[
    ("fig7_latency", Run(fig7_latency::run)), // ping-pong latency vs size, all stacks
    ("fig8_establishment", Run(fig8_establishment::run)), // ESSD restart → steady-state IOPS ramp
    ("fig9_rnr", Run(fig9_rnr::run)),         // RNR counter: X-RDMA vs native verbs
    ("fig10_flowctl", Run(fig10_flowctl::run)), // incast bandwidth/CNP/pause, ±flow control
    ("fig11_production", Run(fig11_production::run)), // online upgrade: QP count, IOPS, memcache
    ("fig12_antijitter", Run(fig12_antijitter::run)), // ESSD/X-DB surge: throughput vs latency
    ("tab_establishment", Run(tab_establishment::run)), // §VII-C connect latency + 4096-conn storm
    ("tab_loc", Run(tab_loc::run)),           // §VII-B lines-of-code comparison
    ("exp_qp_scalability", Run(exp_qp_scalability::run)), // §VII-F QP-context cache up to 60 K QPs
    ("exp_srq", Run(exp_srq::run)),           // §VII-F SRQ memory vs RNR trade
    ("exp_memmode", Run(exp_memmode::run)),   // §VII-F page-mode comparison
    ("exp_jitter", Run(exp_jitter::run)),     // §III Issue 2: congestion jitter magnitude
    ("exp_ablation", Run(exp_ablation::run)), // design-choice ablations (polling, window…)
    ("exp_dct", Run(exp_dct::run)),           // §IX future work: DCT vs RC mesh
    ("exp_lossy", Run(exp_lossy::run)),       // §IX future work: dropping PFC
    #[cfg(feature = "faults")]
    ("chaos_recovery", Run(chaos_recovery::run)), // §V-A keepalive dead-peer detection
    #[cfg(not(feature = "faults"))]
    ("chaos_recovery", Needs("faults")),
    ("msgrate", Run(msgrate::run)), // sweep: CQ batching on/off vs conns
    ("qpscale", Run(qpscale::run)), // sweep: mux pool vs 1 QP/conn to 100 K
    #[cfg(feature = "telemetry")]
    ("latbreak", Run(latbreak::run)), // sweep: per-stage latency, size × depth
    #[cfg(not(feature = "telemetry"))]
    ("latbreak", Needs("telemetry")),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    /// Sweeps of this repo's own mechanisms: no paper row among them.
    const SWEEPS: [&str; 3] = ["msgrate", "qpscale", "latbreak"];

    fn workspace_file(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel);
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    }

    /// The summary sentences of EXPERIMENTS.md and README.md count the
    /// rows and HOLDS of the committed paper-experiment results.
    #[test]
    fn summary_prose_matches_committed_results() {
        let (mut rows, mut holds, mut exps) = (0, 0, 0);
        for (name, _) in EXPERIMENTS.iter().filter(|(n, _)| !SWEEPS.contains(n)) {
            let json = workspace_file(&format!("results/{name}.json"));
            let held = json.matches("\"holds\": true").count();
            holds += held;
            rows += held + json.matches("\"holds\": false").count();
            exps += 1;
        }
        let flat = |rel| {
            workspace_file(rel)
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        };
        let want = format!("{holds} of {rows} comparison rows hold across {exps} experiments");
        assert!(
            flat("EXPERIMENTS.md").contains(&want),
            "EXPERIMENTS.md must say `{want}`"
        );
        let want = format!("{holds}/{rows} comparison rows hold across {exps} experiments");
        assert!(
            flat("README.md").contains(&want),
            "README.md must say `{want}`"
        );
    }
}
