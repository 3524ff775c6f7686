#!/usr/bin/env bash
# Compare the benchmark at a base revision (A) with the working tree (B)
# in alternating pairs, and say per end-to-end metric whether B is
# better, worse, or not resolved at this pair count.
#
# Usage:  scripts/ab_pairs.sh <base-rev> [workload ...]
#         B_REV=HEAD scripts/ab_pairs.sh HEAD warm_rescore   (an A/A test)
#
# Workloads default to every one BENCHMARK.json lists. Each run is the
# benchmark binary with `--workload W --trace 0` only, so its own seed
# and run length apply on both sides. Settings, from the environment:
#   B_REV          build B from this revision instead of the working
#                  tree; when it is A's commit both sides run one binary
#   PAIRS=10       pairs per workload; pair i runs A then B, pair i + 1
#                  B then A, so a drift of the host over the session
#                  falls on both sides alike
#   AB_DIR=target/ab_pairs   where the base source, both builds and every
#                  run's result line go
#
# A revision is exported with `git archive` (nothing is added to the
# repository's metadata) and built offline into its own target directory;
# the working tree is built into another. Each run is a fresh process.
#
# Per workload and metric it prints the median of each side, the median
# of the per-pair ratios B/A, a 95 % distribution-free interval for that
# median (the sign test's order statistics; with 10 pairs it is the
# second smallest and the second largest ratio), how many pairs B won,
# and a verdict: `better` or `worse` when the whole interval lies on one
# side of 1 in the metric's direction, `equal` when every ratio is
# exactly 1, `unresolved` otherwise. Run it as an A/A test to see how
# wide the host's own spread is. Exits 1 if any run fails or is not
# correct.

set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,8p' "$0" >&2; exit 2; }
base_rev=$1
shift
pairs=${PAIRS:-10}
dir=${AB_DIR:-target/ab_pairs}

workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  read -r -a workloads <<<"$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json | tr '\n' ' ')"
fi

mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
build() { # <revision, or "work" for the working tree>; prints the binary
  local src=$PWD target="$dir/target-$1"
  if [ "$1" != work ]; then
    src="$dir/src-$1"
    if [ ! -d "$src" ]; then
      mkdir -p "$src.tmp"
      git archive "$1" | tar -x -C "$src.tmp"
      mv "$src.tmp" "$src"
    fi
  fi
  CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$src/benchmark/Cargo.toml" >&2
  echo "$target/release/polar-benchmark"
}
sha=$(git rev-parse --short=12 "$base_rev^{commit}")
b_side=work
if [ -n "${B_REV:-}" ]; then
  b_side=$(git rev-parse --short=12 "$B_REV^{commit}")
  b_name="$B_REV ($b_side)"
else
  b_name="working tree at $(git rev-parse --short=12 HEAD)"
  git diff --quiet HEAD || b_name="$b_name + changes"
fi
echo "building A = $base_rev ($sha) and B = $b_name" >&2
bin_a=$(build "$sha")
bin_b=$(build "$b_side")

runs="$dir/runs-$sha-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$runs"
run() { # <side> <binary> <workload> <pair>
  local out
  out=$("$2" --workload "$3" --trace 0 | tail -n 1) || {
    echo "$3 pair $4 side $1: nonzero exit" >&2
    return 1
  }
  case "$out" in
    *'"correct":true'*) echo "$out" >"$runs/$3.$1.$4.json" ;;
    *) echo "$3 pair $4 side $1: not correct: $out" >&2; return 1 ;;
  esac
}
for w in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    echo "$w pair $i/$pairs" >&2
    if ((i % 2)); then
      run A "$bin_a" "$w" "$i"
      run B "$bin_b" "$w" "$i"
    else
      run B "$bin_b" "$w" "$i"
      run A "$bin_a" "$w" "$i"
    fi
  done
done

echo "A = $base_rev ($sha), B = $b_name$([ "$bin_a" = "$bin_b" ] && echo ', one binary')"
echo "$pairs pairs per workload; result lines in $runs"
python3 - "$runs" "$pairs" "${workloads[@]}" <<'EOF'
import json, math, statistics, sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
with open("BENCHMARK.json") as f:
    metrics = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]

def load(w, side, i):
    with open(f"{runs}/{w}.{side}.{i}.json") as f:
        return {k: v["value"] for k, v in json.load(f)["metrics"].items()}

# Sign-test interval for a median of n values: the k-th smallest and
# k-th largest, k the largest with 2 P(Binom(n, 1/2) < k) <= 0.05.
k = 1
while 2 * sum(math.comb(pairs, j) for j in range(k + 1)) / 2**pairs <= 0.05:
    k += 1

print(f"{'workload':<17} {'metric':<20} {'A median':>12} {'B median':>12} "
      f"{'B/A':>7}  {'95% interval':<17} {'B won':>6}  verdict")
for w in workloads:
    a = [load(w, "A", i) for i in range(1, pairs + 1)]
    b = [load(w, "B", i) for i in range(1, pairs + 1)]
    for name, better in metrics:
        if name not in a[0]:
            continue
        ratios = sorted(y[name] / x[name] if x[name] else math.nan for x, y in zip(a, b))
        lo, hi = ratios[k - 1], ratios[-k]
        won = sum((r < 1.0) if better == "lower" else (r > 1.0) for r in ratios)
        if all(r == 1.0 for r in ratios):
            verdict = "equal"
        elif (hi < 1.0) if better == "lower" else (lo > 1.0):
            verdict = "better"
        elif (lo > 1.0) if better == "lower" else (hi < 1.0):
            verdict = "worse"
        else:
            verdict = "unresolved"
        print(f"{w:<17} {name:<20} {statistics.median(x[name] for x in a):>12.4g} "
              f"{statistics.median(y[name] for y in b):>12.4g} "
              f"{statistics.median(ratios):>7.3f}  [{lo:.3f}, {hi:.3f}]{'':<2} "
              f"{won:>3}/{pairs:<2}  {verdict}")
EOF
