#!/usr/bin/env bash
# Committed mutants (tests/mutants/manifest): each patch plants a bug that
# tests already in the suite must catch. For every manifest line this
# applies the patch to one throwaway copy of the tree, builds and runs
# each named test alone, expects every one of them to fail, and
# reverse-applies the patch. Every named test first runs once on the
# unpatched copy and must pass there, so a mutant is caught only by a
# test it breaks. The run fails when a mutant survives a named test, does
# not build, names a test that does not exist, or no longer applies: the
# change that rewrote the code refreshes the patch, or retires the mutant
# with its reason in CHANGES.md.
#
#   scripts/mutants.sh [NAME...]    every mutant, or only the named ones
#
# The copy and its target dir live under ${TMPDIR:-/tmp} and go when the
# run ends; the target dir is shared by every mutant, so after the first
# build each costs a rebuild of the patched crate and its dependents.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
work="$(mktemp -d "${TMPDIR:-/tmp}/xrdma-mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
tar -c --exclude=./target --exclude=./.git --exclude=./.bench_build . | tar -x -C "$work/tree"
export CARGO_TARGET_DIR="$work/target"

fail() {
    echo "mutants: $1" >&2
    failed=$((failed + 1))
}

# run_test NAME FEATURES PACKAGE:TARGET:TEST: build the target, then run
# the one test. Returns 0 when it passes, 1 when it fails, 2 when it does
# not build or matches no test (reported here).
run_test() {
    local name=$1 features=$2 pkg target test
    IFS=: read -r pkg target test <<<"$3"
    local cmd=(cargo test -q --manifest-path "$work/tree/Cargo.toml" -p "$pkg")
    if [ "$target" = lib ]; then cmd+=(--lib); else cmd+=(--test "$target"); fi
    [ "$features" = - ] || cmd+=(--features "$features")
    if ! "${cmd[@]}" --no-run >"$work/log" 2>&1; then
        cat "$work/log" >&2
        fail "$name: does not build for $pkg:$target"
        return 2
    fi
    if "${cmd[@]}" -- --exact "$test" >"$work/log" 2>&1; then
        if grep -q '^running 0 tests' "$work/log"; then
            fail "$name: $pkg:$target has no test $test"
            return 2
        fi
        return 0
    fi
    return 1
}

lines=()
while read -r name rest; do
    case "$name" in '' | '#'*) continue ;; esac
    if [ $# -eq 0 ] || [[ " $* " == *" $name "* ]]; then
        lines+=("$name $rest")
    fi
done <tests/mutants/manifest

failed=0
for line in "${lines[@]}"; do
    read -r name features origin tests <<<"$line"
    for spec in $tests; do
        set +e
        run_test "$name" "$features" "$spec"
        status=$?
        set -e
        if [ "$status" -eq 1 ]; then
            cat "$work/log" >&2
            fail "$name: $spec fails without the patch"
        fi
    done
done

for line in "${lines[@]}"; do
    read -r name features origin tests <<<"$line"
    patch="$root/tests/mutants/$name.patch"
    if ! (cd "$work/tree" && git apply "$patch"); then
        fail "$name (CHANGES $origin): the patch no longer applies"
        continue
    fi
    for spec in $tests; do
        set +e
        run_test "$name" "$features" "$spec"
        status=$?
        set -e
        case "$status" in
            0) fail "$name (CHANGES $origin) SURVIVED $spec" ;;
            1) echo "mutants: $name caught by $spec" ;;
        esac
    done
    (cd "$work/tree" && git apply -R "$patch")
done
total=${#lines[@]}

if [ "$total" -eq 0 ]; then
    fail "no mutant matched: $*"
fi
echo "mutants: $total run, $failed failure(s)"
[ "$failed" -eq 0 ]
