//! # xrdma-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§VII), each
//! regenerating the corresponding rows/series on the simulated testbed and
//! reporting **paper-reported vs measured** so EXPERIMENTS.md can record the
//! comparison. Absolute values depend on the simulator calibration; the
//! reproduced result is the *shape* — orderings, ratios, crossovers.
//!
//! [`experiments::EXPERIMENTS`] lists them all; the `paper` binary runs
//! them and writes `results/<experiment>.json`.

pub mod experiments;
pub mod report;
pub mod scenarios;

pub use report::Report;
