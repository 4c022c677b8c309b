#!/usr/bin/env bash
# Full local CI gate. Run from anywhere; operates on the repo root.
#
#   build    release build of the whole workspace
#   fmt      rustfmt in check mode
#   clippy   all targets, warnings are errors
#   lint     xrdma-lint determinism/shard-safety pass (DESIGN.md §7):
#            regenerates results/lint.json and fails on any diagnostic,
#            on unused allow annotations, and on malformed annotations
#            (an inline `allow(rule) -- reason` is the only way to accept
#            a finding); coverage spans the sim crates plus tests/,
#            examples/ and crates/bench
#   test     full suite across the feature matrix:
#              - default (telemetry compiled out)
#              - telemetry (event bus + exporters live)
#              - telemetry + debug_invariants (flight recorder wired to
#                the runtime invariant checkers)
#              - faults + telemetry + debug_invariants (fault injector
#                live: chaos suite + fault-plan property tests)
#              - threaded-engine leg: the sharding battery (all features)
#                run explicitly — the real middleware stack on threaded
#                ShardWorld lanes at shards {1,2,4,8}, byte-identical
#                digests/telemetry/span JSONL, loss-chaos recovery, and
#                the busiest lane's share of events
#   msgrate  smoke run (XRDMA_SMOKE=1, shared by the three sweep legs) of
#            the CQ-batching/doorbell-coalescing message-rate sweep
#            (batching on vs batch=1) — results land in a temp dir
#            so the committed full-scale results/msgrate.json stays
#            untouched
#   qpscale  smoke run of the connection-multiplexing sweep (ChannelMux
#            pool vs 1 QP per channel), same temp-dir discipline; the
#            committed full-scale results/qpscale.json stays untouched
#   latbreak smoke run of the per-stage latency breakdown sweep (causal
#            spans, DESIGN.md §8) — asserts stage sums telescope to the
#            end-to-end sum; needs the telemetry feature, temp-dir
#            discipline as above
#   bench    builds the separate `benchmark/` workspace (nothing else
#            compiles it) and smoke-runs every workload at --quick scale
#            into a temp dir; fails on any output check and on any
#            model_digest mismatch between a workload's repetitions
#   golden   the test legs must not have rewritten any committed golden
#            file (catches an XRDMA_UPDATE_GOLDEN leak or a determinism
#            break that slipped past the byte-compare tests)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace
run cargo build --release --workspace --features xrdma-bench/telemetry,xrdma-tests/telemetry
run cargo build --release --workspace --features xrdma-bench/faults,xrdma-tests/faults
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo run -q --release -p xrdma-lint -- --format json --out results/lint.json
run cargo test -q --workspace
run cargo test -q --workspace --features xrdma-tests/telemetry
run cargo test -q --workspace --features xrdma-tests/telemetry,xrdma-tests/debug_invariants
run cargo test -q --workspace --features xrdma-tests/faults,xrdma-tests/telemetry,xrdma-tests/debug_invariants
run cargo test -q -p xrdma-tests --test sharding \
    --features xrdma-tests/faults,xrdma-tests/telemetry,xrdma-tests/debug_invariants
run env XRDMA_SMOKE=1 XRDMA_RESULTS_DIR="$(mktemp -d)" \
    cargo run -q --release -p xrdma-bench --bin msgrate
run env XRDMA_SMOKE=1 XRDMA_RESULTS_DIR="$(mktemp -d)" \
    cargo run -q --release -p xrdma-bench --bin qpscale
run env XRDMA_SMOKE=1 XRDMA_RESULTS_DIR="$(mktemp -d)" \
    cargo run -q --release -p xrdma-bench --features xrdma-bench/telemetry --bin latbreak
run benchmark/run.sh --quick --out "$(mktemp -d)"
run git diff --exit-code -- tests/golden results/msgrate.json results/qpscale.json results/lint.json results/latbreak.json

echo "==> ci.sh: all gates passed"
