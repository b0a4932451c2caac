#!/usr/bin/env bash
# Workspace gate: formatting, lints, static analysis, rustdoc, the
# test suite, and the repository benchmark's build and self-tests
# (perfbench/ is its own Cargo workspace, so the root `cargo test`
# never compiles it).
# Run from anywhere; operates on the repository containing this script.
#
#   scripts/check.sh          full gate (including the release-mode
#                             fault_flap_study, route_resolution,
#                             engine_hotpath, engine_throughput,
#                             partitioner, mem_footprint,
#                             checkpoint_study, fluid_scaling and
#                             rebalance_study smoke runs)
#   scripts/check.sh --fast   skip the release-mode smoke runs
#
# Each stage is wall-clock timed; a summary table prints at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *)
            echo "usage: $0 [--fast]" >&2
            exit 2
            ;;
    esac
done

STAGE_NAMES=()
STAGE_SECS=()

# stage <name> <cmd...>: run a gate stage, recording its wall-clock time.
stage() {
    local name="$1"
    shift
    echo "== $name =="
    local start end
    start=$(date +%s)
    "$@"
    end=$(date +%s)
    STAGE_NAMES+=("$name")
    STAGE_SECS+=($((end - start)))
}

stage "cargo fmt --check" \
    cargo fmt --all -- --check

# simlint runs before clippy: it needs no compilation, so determinism
# violations surface in under a second instead of after a full
# workspace build.
stage "simlint (determinism & safety static analysis)" \
    cargo run -q -p massf-simlint -- --workspace --baseline simlint-baseline.txt

stage "cargo clippy (deny warnings + unwrap_used, whole workspace)" \
    cargo clippy --workspace --all-targets -- -D warnings -D clippy::unwrap_used

# -D warnings: a doc link to a deleted or private item fails here.
stage "cargo doc (deny warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

stage "cargo test" \
    cargo test -q

# --locked: a change that would rewrite perfbench/Cargo.lock fails here.
stage "perfbench tests (repository benchmark, --locked)" \
    cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

if [ "$FAST" -eq 0 ]; then
    stage "fault_flap_study --smoke" \
        cargo run --release -q -p massf-bench --bin fault_flap_study -- --smoke
    stage "route_resolution --smoke" \
        cargo bench -q -p massf-bench --bench route_resolution -- --smoke
    stage "engine_hotpath --smoke" \
        cargo bench -q -p massf-bench --bench engine_hotpath -- --smoke
    stage "engine_throughput --smoke" \
        cargo bench -q -p massf-bench --bench engine_throughput -- --smoke
    stage "partitioner --smoke" \
        cargo bench -q -p massf-bench --bench partitioner -- --smoke
    stage "mem_footprint --smoke" \
        cargo run --release -q -p massf-bench --features alloc-count --bin mem_footprint -- --smoke
    stage "checkpoint_study --smoke" \
        cargo run --release -q -p massf-bench --bin checkpoint_study -- --smoke
    stage "fluid_scaling --smoke" \
        cargo run --release -q -p massf-bench --bin fluid_scaling -- --smoke
    stage "rebalance_study --smoke" \
        cargo run --release -q -p massf-bench --bin rebalance_study -- --smoke
else
    echo "== release-mode smoke runs skipped (--fast) =="
fi

echo
echo "== stage timings =="
total=0
for i in "${!STAGE_NAMES[@]}"; do
    printf '%4ds  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
    total=$((total + STAGE_SECS[i]))
done
printf '%4ds  total\n' "$total"

echo "All checks passed."
