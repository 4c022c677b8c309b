//! The experiments, one module each, and the registry the `paper` binary
//! runs them from.
//!
//! Each module's `run()` builds its simulated testbed, prints its own
//! progress table, and returns the paper-vs-measured rows plus plot
//! series as a [`Report`]; writing it out is the caller's job.

use crate::Report;

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
pub mod tab_establishment;
pub mod tab_loc;

/// Every experiment, in the order `paper all` runs them.
pub const EXPERIMENTS: &[(&str, fn() -> Report)] = &[
    ("fig7_latency", fig7_latency::run), // ping-pong latency vs size, all stacks
    ("fig8_establishment", fig8_establishment::run), // ESSD restart → steady-state IOPS ramp
    ("fig9_rnr", fig9_rnr::run),         // RNR counter: X-RDMA vs native verbs
    ("fig10_flowctl", fig10_flowctl::run), // incast bandwidth/CNP/pause, ±flow control
    ("fig11_production", fig11_production::run), // online upgrade: QP count, IOPS, memcache
    ("fig12_antijitter", fig12_antijitter::run), // ESSD/X-DB surge: throughput vs latency
    ("tab_establishment", tab_establishment::run), // §VII-C connect latency + 4096-conn storm
    ("tab_loc", tab_loc::run),           // §VII-B lines-of-code comparison
    ("exp_qp_scalability", exp_qp_scalability::run), // §VII-F QP-context cache up to 60 K QPs
    ("exp_srq", exp_srq::run),           // §VII-F SRQ memory vs RNR trade
    ("exp_memmode", exp_memmode::run),   // §VII-F page-mode comparison
    ("exp_jitter", exp_jitter::run),     // §III Issue 2: congestion jitter magnitude
    ("exp_ablation", exp_ablation::run), // design-choice ablations (polling, window…)
    ("exp_dct", exp_dct::run),           // §IX future work: DCT vs RC mesh
    ("exp_lossy", exp_lossy::run),       // §IX future work: dropping PFC
    ("chaos_recovery", chaos_recovery::run), // §V-A keepalive dead-peer detection
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    fn workspace_file(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel);
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    }

    /// `results/` holds one `<name>.json` per registered experiment plus
    /// the lint report, and nothing else: ci regenerates only what the
    /// registry names, so a deleted experiment's file would linger there
    /// unchecked. Trace artifacts (`*.trace.json`) are gitignored.
    #[test]
    fn results_hold_exactly_the_registered_experiments() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut found: Vec<String> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .filter(|f| !f.ends_with(".trace.json"))
            .collect();
        found.sort();
        let mut want: Vec<String> = EXPERIMENTS
            .iter()
            .map(|(name, _)| format!("{name}.json"))
            .chain(["lint.json".to_string()])
            .collect();
        want.sort();
        assert_eq!(found, want, "results/ against the registry");
    }

    /// The summary sentences of EXPERIMENTS.md and README.md count the
    /// rows and HOLDS of the committed paper-experiment results.
    #[test]
    fn summary_prose_matches_committed_results() {
        let (mut rows, mut holds, mut exps) = (0, 0, 0);
        for (name, _) in EXPERIMENTS {
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
