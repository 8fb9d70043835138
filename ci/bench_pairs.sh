#!/usr/bin/env bash
# Alternating parent/change perfbench pairs.
#
# Builds perfbench from `git archive`s of two revisions, each in its own
# directory with its own target directory, then runs N pairs per workload
# and seed, alternating which side runs first. Prints, per workload, seed
# and end-to-end metric, the median and quartiles of each side and the
# change's win count, and whether the `model.*` lines are byte-equal on
# every run of both sides.
#
# Usage:
#   ci/bench_pairs.sh [options] [PARENT [CHANGE]]
#
#   PARENT     revision to compare against (default HEAD)
#   CHANGE     revision to measure (default: the working tree's tracked and
#              staged files, as `git stash create` records them, or HEAD
#              when they equal it)
#   --pairs N         pairs per workload and seed (default 10)
#   --seconds S       perfbench --seconds of each run (default 50)
#   --workload W      a workload to run; repeatable (default
#                     wafer_ni_balance and disagg_fleet)
#   --seed N          a perfbench --seed; repeatable (default: perfbench's)
#   --aligned         build both sides with every function aligned to 64
#                     bytes (RUSTFLAGS="-C llvm-args=-align-all-functions=6"),
#                     a control for code-layout effects
#   --out DIR         where builds and run outputs go (default: a new
#                     temporary directory)
#
# Run it from the repository root on an otherwise idle host.
set -euo pipefail

pairs=10
seconds=50
aligned=0
out=""
workloads=()
seeds=()
revs=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seeds+=("$2"); shift 2 ;;
    --aligned) aligned=1; shift ;;
    --out) out=$2; shift 2 ;;
    -h | --help) sed -n '2,30p' "$0"; exit 0 ;;
    -*) echo "bench_pairs: unknown option $1" >&2; exit 2 ;;
    *) revs+=("$1"); shift ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(wafer_ni_balance disagg_fleet)
[ ${#seeds[@]} -gt 0 ] || seeds=(default)
parent=$(git rev-parse --verify "${revs[0]:-HEAD}^{commit}")
if [ ${#revs[@]} -gt 1 ]; then
  change=$(git rev-parse --verify "${revs[1]}^{commit}")
else
  change=$(git stash create)
  change=${change:-$(git rev-parse HEAD)}
fi
out=${out:-$(mktemp -d -t bench_pairs.XXXXXX)}
mkdir -p "$out/runs"
rustflags=""
[ "$aligned" -eq 0 ] || rustflags="-C llvm-args=-align-all-functions=6"

build() {
  local side=$1 rev=$2
  rm -rf "$out/$side/src"
  mkdir -p "$out/$side/src"
  git archive "$rev" | tar -x -C "$out/$side/src"
  echo "bench_pairs: building $side ($rev${rustflags:+, $rustflags})" >&2
  (cd "$out/$side/src" && CARGO_TARGET_DIR="$out/$side/target" RUSTFLAGS="$rustflags" \
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
}
build parent "$parent"
build change "$change"

run() {
  local side=$1 workload=$2 seed=$3 pair=$4
  local args=(--workload "$workload" --seconds "$seconds")
  [ "$seed" = default ] || args+=(--seed "$seed")
  (cd "$out/$side/src" && "$out/$side/target/release/moentwine-perfbench" "${args[@]}") \
    > "$out/runs/${workload}_${seed}_${pair}_${side}.txt"
}
for workload in "${workloads[@]}"; do
  for seed in "${seeds[@]}"; do
    for pair in $(seq 1 "$pairs"); do
      echo "bench_pairs: $workload seed $seed pair $pair/$pairs" >&2
      if [ $((pair % 2)) -eq 1 ]; then
        run parent "$workload" "$seed" "$pair"
        run change "$workload" "$seed" "$pair"
      else
        run change "$workload" "$seed" "$pair"
        run parent "$workload" "$seed" "$pair"
      fi
    done
  done
done

echo "parent $parent, change $change, $pairs pairs of ${seconds}-s runs${rustflags:+, $rustflags}"
python3 - "$out/runs" "$pairs" "${workloads[@]}" -- "${seeds[@]}" <<'EOF'
import re, statistics, sys
from pathlib import Path

runs, pairs = Path(sys.argv[1]), int(sys.argv[2])
split = sys.argv.index("--")
workloads, seeds = sys.argv[3:split], sys.argv[split + 1:]
END_TO_END = ["wall_s", "wall_us_per_request", "setup_s", "peak_rss_mb"]
METRIC = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)$")
HEADER = re.compile(r"^\S+: model counters of point \S+$")

def parse(path):
    text = path.read_text()
    metrics = {}
    for line in text.splitlines():
        m = METRIC.match(line)
        if m and not m.group(1).startswith("model."):
            try:
                metrics[m.group(1)] = float(m.group(2))
            except ValueError:
                pass
    model = [l for l in text.splitlines()
             if HEADER.match(l) or (METRIC.match(l) and l.split()[0].startswith("model."))]
    return metrics, model

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

for workload in workloads:
    for seed in seeds:
        sides = {s: [parse(runs / f"{workload}_{seed}_{p}_{s}.txt") for p in range(1, pairs + 1)]
                 for s in ("parent", "change")}
        models = {tuple(m) for s in sides.values() for _, m in s}
        print(f"\n{workload}, seed {seed}: model.* byte-equal on all runs: "
              f"{'yes' if len(models) == 1 else 'NO'}")
        print(f"  {'metric':<22} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
              f"{'delta':>8} {'wins':>6}")
        for metric in END_TO_END:
            p = [m[metric] for m, _ in sides["parent"] if metric in m]
            c = [m[metric] for m, _ in sides["change"] if metric in m]
            if len(p) != pairs or len(c) != pairs:
                print(f"  {metric:<22} missing")
                continue
            pq, cq = quartiles(p), quartiles(c)
            wins = sum(b < a for a, b in zip(p, c))
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
            beyond = abs(cq[1] - pq[1]) > pq[2] - pq[0]
            print(f"  {metric:<22} {fmt(pq):>32} {fmt(cq):>32} {delta:>+7.1f}% "
                  f"{wins:>3}/{pairs}{'  (> parent IQR)' if beyond else ''}")
EOF
echo "runs kept in $out"
