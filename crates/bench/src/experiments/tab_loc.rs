//! §VII-B programming simplification: "to implement data plane and
//! protocols in Pangu, 2000 LOC native RDMA code is needed. In comparison,
//! only about 40 LOC of X-RDMA APIs is required."
//!
//! We regenerate the comparison from this repository itself: the
//! application-visible X-RDMA code of the quickstart example versus the
//! verbs-level machinery a native implementation must own (the generic AM
//! endpoint of the baselines crate plus the protocol pieces the middleware
//! had to build — window, reliability glue, registration management).

use std::fs;
use std::path::Path;

use crate::Report;

/// The X-RDMA application: the quickstart example.
const XRDMA_APP: &str = "examples/quickstart.rs";

/// Native verbs equivalent: what an application team owns without the
/// middleware — endpoint construction, buffer slicing/registration,
/// eager/rendezvous framing, CQ polling and dispatch (baselines::am),
/// plus the seq-ack window and header codec the middleware encapsulates
/// (a floor; production Pangu also owned failure handling, making the
/// paper's 2000 LOC plausible).
const NATIVE: [&str; 3] = [
    "crates/baselines/src/am.rs",
    "crates/core/src/seqack.rs",
    "crates/core/src/proto.rs",
];

/// Non-blank, non-comment lines of a Rust source file named relative to
/// the workspace root, whatever the working directory.
///
/// # Panics
///
/// If the file cannot be read: a missing source must not count as 0 lines.
fn loc(rel: &str) -> usize {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("tab_loc: cannot read {}: {e}", path.display()));
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

pub fn run() -> Report {
    // Application code with X-RDMA: the quickstart's app section — the
    // listen/connect/request/respond block. We count the whole example and
    // subtract its world-building scaffolding (everything a socket program
    // wouldn't write either).
    let quickstart = loc(XRDMA_APP);
    // The ~8 lines of simulator setup aren't application logic.
    let xrdma_app_loc = quickstart.saturating_sub(14);
    let native_loc: usize = NATIVE.into_iter().map(loc).sum();

    let mut rep = Report::new(
        "tab_loc",
        "lines of application code: native verbs vs X-RDMA APIs",
    );
    rep.row(
        "X-RDMA application LOC (ping-pong/RPC)",
        "~40",
        format!("{xrdma_app_loc}"),
        (20..=80).contains(&xrdma_app_loc),
    );
    rep.row(
        "native verbs equivalent LOC (floor)",
        "~2000 (full Pangu data plane)",
        format!("{native_loc}"),
        native_loc > 500,
    );
    rep.row(
        "reduction factor",
        "~50x",
        format!("{:.0}x", native_loc as f64 / xrdma_app_loc.max(1) as f64),
        native_loc / xrdma_app_loc.max(1) >= 10,
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counted_file_has_lines() {
        for rel in std::iter::once(XRDMA_APP).chain(NATIVE) {
            assert!(loc(rel) > 0, "{rel} counts 0 lines");
        }
    }
}
