#!/usr/bin/env bash
# Check that the benchmark package still builds, passes its own tests and
# runs every workload to a correct result against the workspace crates.
# `benchmark/` is a workspace of its own that tier-1 never builds, so a
# library change that drops or renames something it links — or that makes
# its layer-by-layer copy of the solve pipeline drift from the library —
# shows up only here.
#
# Usage:  scripts/check_benchmark.sh        (honours CARGO_TARGET_DIR)
#
# Builds offline in release mode, runs the package's unit tests, then runs
# each workload for 2 s untraced and traced. Fails on a nonzero exit or on
# a result line that does not say "correct":true. Prints each result's
# head and, for a traced run, its `trace.overhead_share`.

set -euo pipefail
cd "$(dirname "$0")/.."

manifest=(--offline --manifest-path benchmark/Cargo.toml)
cargo build --release "${manifest[@]}"
cargo test "${manifest[@]}"

workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)
[ -n "$workloads" ] || { echo "no workloads found in BENCHMARK.json" >&2; exit 1; }
for workload in $workloads; do
  for trace in 0 1; do
    echo "== $workload --trace $trace"
    out=$(cargo run --release --quiet "${manifest[@]}" -- \
      --workload "$workload" --seed 47 --seconds 2 --trace "$trace") \
      || { echo "$out" | tail -n 5; echo "$workload --trace $trace: nonzero exit" >&2; exit 1; }
    result=$(echo "$out" | tail -n 1)
    case "$result" in
      *'"correct":true'*)
        # A traced run also shows how far its layered ops sit from the
        # library's: beyond ±0.05 on cold_solve or trajectory it is not correct.
        share=$(echo "$result" | sed -n 's/.*"trace\.overhead_share":{"value":\([^,}]*\).*/\1/p')
        echo "$(echo "$result" | cut -c1-120)${share:+ ... trace.overhead_share $share}" ;;
      *) echo "$result"; echo "$workload --trace $trace: not correct" >&2; exit 1 ;;
    esac
  done
done
echo "benchmark package: build, tests and all workloads ok"
