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
#   test     full suite, twice: default, and with debug_invariants (the
#            runtime invariant checkers compiled in, wired to the
#            telemetry flight recorder); telemetry and fault injection
#            are runtime planes, live in both legs
#   paper    regenerates every experiment at full scale into a temp dir
#            with one `paper all` and byte-compares it with results/:
#            every committed result file, and with it every paper row and
#            verdict, must be exactly what the code writes; the run ends
#            with a `paper: N s wall, peak RSS M MB (VmHWM)` line, so the
#            log carries both costs
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

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run cargo build --release --workspace
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo run -q --release -p xrdma-lint -- --format json --out results/lint.json
run cargo test -q --workspace
run cargo test -q --workspace --features xrdma-tests/debug_invariants
run target/release/paper all --out "$tmp/paper"
run diff -r --exclude='*.trace.json' --exclude=lint.json results "$tmp/paper"
run benchmark/run.sh --quick --out "$tmp/bench"
run git diff --exit-code -- tests/golden 'results/*.json'

echo "==> ci.sh: all gates passed"
