#!/usr/bin/env bash
# Full local CI gate. Run from anywhere; operates on the repo root.
#
#   build    release build of the whole workspace
#   fmt      rustfmt in check mode
#   clippy   all targets, warnings are errors
#   lint     xrdma-lint determinism pass (DESIGN.md §7):
#            regenerates results/lint.json and fails on any diagnostic,
#            on unused allow annotations, and on malformed annotations
#            (an inline `allow(rule) -- reason` is the only way to accept
#            a finding); coverage spans the sim crates plus tests/,
#            examples/ and crates/bench, and rule U2 (unvaried-knob)
#            also reads config writers, and nothing else, from every
#            crate's tests/ and benches/ and from benchmark/src
#   test     full suite across the feature matrix:
#              - default (telemetry compiled out)
#              - telemetry (event bus + exporters live)
#              - telemetry + debug_invariants (flight recorder wired to
#                the runtime invariant checkers)
#              - faults + telemetry + debug_invariants (fault injector
#                live: chaos suite + fault-plan property tests)
#   paper    regenerates every experiment at full scale into a temp dir
#            (`paper all` from the telemetry build, `paper chaos_recovery`
#            from the faults build) and byte-compares it with results/:
#            every committed result file, and with it every paper row and
#            verdict, must be exactly what the code writes; each `paper`
#            run ends with a `paper: N s wall, peak RSS M MB (VmHWM)` line,
#            so the log carries both costs
#   bench    builds the separate `benchmark/` workspace (nothing else
#            compiles it) and smoke-runs every workload at --quick scale
#            into a temp dir; fails on any output check and on any
#            model_digest mismatch between a workload's repetitions
#   golden   the test legs must not have rewritten any committed golden
#            or result file (catches an XRDMA_UPDATE_GOLDEN leak or a
#            determinism break that slipped past the byte-compare tests)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

telemetry=xrdma-bench/telemetry,xrdma-tests/telemetry
faults=xrdma-bench/faults,xrdma-tests/faults

run cargo build --release --workspace
run cargo build --release --workspace --features "$telemetry"
run cargo build --release --workspace --features "$faults"
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo run -q --release -p xrdma-lint -- --format json --out results/lint.json
run cargo test -q --workspace
run cargo test -q --workspace --features xrdma-tests/telemetry
run cargo test -q --workspace --features xrdma-tests/telemetry,xrdma-tests/debug_invariants
run cargo test -q --workspace --features xrdma-tests/faults,xrdma-tests/telemetry,xrdma-tests/debug_invariants
# Each build below is already compiled; it only puts that variant's
# `paper` back in target/release.
paper_out="$(mktemp -d)"
run cargo build -q --release --workspace --features "$telemetry"
run target/release/paper all --out "$paper_out"
run cargo build -q --release --workspace --features "$faults"
run target/release/paper chaos_recovery --out "$paper_out"
run diff -r --exclude='*.trace.json' --exclude=lint.json results "$paper_out"
run benchmark/run.sh --quick --out "$(mktemp -d)"
run git diff --exit-code -- tests/golden 'results/*.json'

echo "==> ci.sh: all gates passed"
