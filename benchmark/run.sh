#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--quick] [--out DIR]
#       builds both binaries, runs every workload (end-to-end pass, ladder,
#       per-layer/traced pass), prints every metric as
#       `workload name unit value` and writes <out>/latest.json.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one pass; the last line of stdout is the result
#       object the benchmark contract (BENCHMARK.json) describes.
#
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# A relative CARGO_TARGET_DIR is relative to the repo root, like ours.
target="${CARGO_TARGET_DIR:-target}"

# Both builds, every time (a no-op once fresh): the default one measures,
# the `telemetry` one runs the traced pass. Build chatter goes to stderr.
manifest=benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest" \
    --target-dir "$target" --bin xr-bench >&2
cargo build --release --offline --quiet --manifest-path "$manifest" \
    --target-dir "$target" --features telemetry --bin xr-bench-traced >&2

bin="$target/release/xr-bench"
case "${1:-}" in
    compare) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@"
    fi
done
exec "$bin" suite "$@"
