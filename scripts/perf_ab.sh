#!/usr/bin/env bash
# Alternating A/B runs of the benchmark: a parent revision against the
# working tree.
#
#   scripts/perf_ab.sh <parent-rev> <workload> <seed> <pairs>
#
# Checks the parent revision out into a git worktree under build/perf_ab/,
# builds perfbench for it and for the working tree in separate
# CARGO_TARGET_DIRs (build/perf_ab/parent, build/perf_ab/change), then
# runs `perfbench/run.py --workload <workload> --seed <seed> --seconds
# <run_seconds> --trace 0` <pairs> times on each side (the run length
# BENCHMARK.json fixes), alternating which side goes first, so drift on
# a shared host hits both sides alike.  Prints,
# for every end-to-end metric of BENCHMARK.json, the median of each side,
# the change/parent ratio, the number of pairs the change won and the
# parent's interquartile range -- the figures a speed claim needs, since
# one pair cannot resolve a 10% change on a noisy host.  Every run must
# print a correct result; a failed run aborts the script.  Raw result
# lines are kept in build/perf_ab/<workload>-<seed>.ndjson.
set -euo pipefail

if [ "$#" -ne 4 ]; then
  echo "usage: scripts/perf_ab.sh <parent-rev> <workload> <seed> <pairs>" >&2
  exit 2
fi
rev="$1" workload="$2" seed="$3" pairs="$4"

cd "$(dirname "$0")/.."
root="$PWD"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)"
ab="$root/build/perf_ab"
tree="$ab/parent-src"
mkdir -p "$ab"

cleanup() { git worktree remove --force "$tree" > /dev/null 2>&1 || true; }
cleanup
trap cleanup EXIT
git worktree add --force --detach "$tree" "$rev" > /dev/null

out="$ab/$workload-$seed.ndjson"
: > "$out"

# run <side> <source root> <pair>: one measured run, result line appended.
run() {
  local line
  line="$(CARGO_TARGET_DIR="$ab/$1" python3 "$2/perfbench/run.py" \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
      2> "$ab/$1.log" | tail -n 1)"
  if ! python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' \
      "$line" 2> /dev/null; then
    echo "perf_ab: $1 run of pair $3 failed (see $ab/$1.log)" >&2
    exit 1
  fi
  python3 -c 'import json, sys; print(json.dumps({"side": sys.argv[1], "pair": int(sys.argv[2]), "result": json.loads(sys.argv[3])}))' \
    "$1" "$3" "$line" >> "$out"
  echo "perf_ab: pair $3 $1 done" >&2
}

for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then
    run parent "$tree" "$i"
    run change "$root" "$i"
  else
    run change "$root" "$i"
    run parent "$tree" "$i"
  fi
done

python3 - "$root/BENCHMARK.json" "$out" "$rev" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
rev, workload, seed = sys.argv[3:6]
pairs = {}
for r in runs:
    pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
print(f"{workload} seed {seed}: {len(pairs)} alternating pairs, "
      f"parent {rev} vs working tree")
print(f"{'metric':<20} {'parent':>12} {'change':>12} {'ratio':>8} "
      f"{'wins':>6} {'parent IQR':>12}")
for m in spec["end_to_end"]:
    name = m["name"]
    a = [p["parent"][name]["value"] for p in pairs.values()]
    b = [p["change"][name]["value"] for p in pairs.values()]
    if m["better"] == "higher":
        wins = sum(y > x for x, y in zip(a, b))
    else:
        wins = sum(y < x for x, y in zip(a, b))
    iqr = 0.0
    if len(a) >= 2:
        q1, _, q3 = statistics.quantiles(a, n=4)
        iqr = q3 - q1
    pa, pb = statistics.median(a), statistics.median(b)
    ratio = pb / pa if pa else float("nan")
    print(f"{name:<20} {pa:>12.6g} {pb:>12.6g} {ratio:>8.4f} "
          f"{wins:>3}/{len(a):<2} {iqr:>12.6g}")
EOF
