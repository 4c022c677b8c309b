//! # xrdma-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§VII), each
//! regenerating the corresponding rows/series on the simulated testbed and
//! printing **paper-reported vs measured** so EXPERIMENTS.md can record the
//! comparison. Absolute values depend on the simulator calibration; the
//! reproduced result is the *shape* — orderings, ratios, crossovers.
//!
//! | binary                | experiment                                 |
//! |-----------------------|--------------------------------------------|
//! | `fig7_latency`        | ping-pong latency vs size, all stacks      |
//! | `fig8_establishment`  | ESSD restart → steady-state IOPS ramp      |
//! | `fig9_rnr`            | RNR counter: X-RDMA vs native verbs        |
//! | `fig10_flowctl`       | incast bandwidth/CNP/pause, ±flow control  |
//! | `fig11_production`    | online upgrade: QP count, IOPS, memcache   |
//! | `fig12_antijitter`    | ESSD/X-DB surge: throughput vs latency     |
//! | `tab_establishment`   | §VII-C connect latencies + 4096-conn storm |
//! | `tab_loc`             | §VII-B lines-of-code comparison            |
//! | `exp_qp_scalability`  | §VII-F QP-context cache up to 60 K QPs     |
//! | `exp_srq`             | §VII-F SRQ memory vs RNR trade            |
//! | `exp_memmode`         | §VII-F page-mode comparison                |
//! | `exp_jitter`          | §III Issue 2: congestion jitter magnitude  |
//! | `exp_ablation`        | design-choice ablations (polling, window…) |
//! | `exp_dct`             | §IX future work: DCT vs RC mesh            |
//! | `exp_lossy`           | §IX future work: dropping PFC              |

pub mod report;
pub mod scenarios;

pub use report::Report;

/// Whether `XRDMA_SMOKE` is set (to anything but empty or `0`): the sweep
/// binaries then run a shrunken sweep for CI, each documenting what it
/// drops.
pub fn smoke() -> bool {
    std::env::var("XRDMA_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}
