#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark (perfbench): the
# working tree against a baseline revision, on one machine in one session.
#
# Usage:
#   scripts/bench_ab.sh <rev> <workload> [pairs] [-- perfbench flags...]
#
#   <rev>       baseline: any git revision (commit, branch, tag, HEAD~1)
#   <workload>  a perfbench workload (paper_cold, replan_warm, ...)
#   [pairs]     number of baseline/change pairs (default 10)
#   perfbench flags default to: --seed 2024 --seconds 20 --trace 0
#
# The baseline's perfbench is built and run from a temporary
# `git worktree` under target/bench_ab/ (perfbench reads its recorded
# digests from its own source tree), removed again on exit; its build
# directory is kept, so a rerun rebuilds only what changed. The change
# side is the working tree's perfbench. Pair i runs both binaries back to
# back, the baseline first on even pairs and the change first on
# odd ones, so slow drift of the host hits both sides alike.
#
# Printed per side and metric: median, quartiles and how many runs were
# `correct` with 0 failed operations; per metric: the change's wins over
# the baseline (by BENCHMARK.json's direction), the median ratio, and
# whether the median gain exceeds the baseline's interquartile spread.
# Every pair's values are printed first. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/bench_ab.sh <rev> <workload> [pairs] [-- perfbench flags...]" >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
REV="$1"
WORKLOAD="$2"
shift 2
PAIRS=10
if [[ $# -gt 0 && "$1" != "--" ]]; then
  PAIRS="$1"
  shift
fi
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "error: pairs must be a positive integer, got '$PAIRS'" >&2; usage; }
FLAGS=(--seed 2024 --seconds 20 --trace 0)
if [[ $# -gt 0 ]]; then
  [[ "$1" == "--" ]] || usage
  shift
  [[ $# -gt 0 ]] && FLAGS=("$@")
fi
command -v python3 >/dev/null || { echo "error: python3 is required for the summary" >&2; exit 1; }

SHA="$(git rev-parse --verify --quiet "$REV^{commit}")" || { echo "error: unknown revision '$REV'" >&2; exit 2; }
AB_DIR="target/bench_ab"
TREE="$AB_DIR/tree-${SHA:0:12}"
mkdir -p "$AB_DIR"
cleanup_tree() {
  git worktree remove --force "$TREE" 2>/dev/null || true
  git worktree prune
}
trap cleanup_tree EXIT
cleanup_tree

echo "==> building baseline perfbench at ${SHA:0:12}" >&2
git worktree add --detach --quiet "$TREE" "$SHA"
CARGO_TARGET_DIR="$AB_DIR/target-base" \
  cargo build --release --offline --quiet --manifest-path "$TREE/perfbench/Cargo.toml"
BASE_BIN="$AB_DIR/target-base/release/perfbench"

echo "==> building change perfbench (working tree)" >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
CHANGE_BIN="perfbench/target/release/perfbench"

RUN_DIR="$(mktemp -d "$AB_DIR/run.XXXXXX")"
echo "==> $PAIRS pairs of '$WORKLOAD' (${FLAGS[*]}); logs in $RUN_DIR" >&2

# Runs one side once; its last stdout line (the result JSON) goes to
# results-<side>.jsonl, stderr notes to a per-run log.
run_side() {
  local side="$1" bin="$2" pair="$3" line
  line="$("$bin" --workload "$WORKLOAD" "${FLAGS[@]}" 2>"$RUN_DIR/$side-$pair.log" | tail -n 1)" || true
  [[ "$line" == "{"* ]] || line='{"correct":false,"attempted":0,"failed":0,"metrics":{}}'
  echo "$line" >> "$RUN_DIR/results-$side.jsonl"
}

for ((i = 0; i < PAIRS; i++)); do
  if ((i % 2 == 0)); then
    run_side base "$BASE_BIN" "$i"
    run_side change "$CHANGE_BIN" "$i"
  else
    run_side change "$CHANGE_BIN" "$i"
    run_side base "$BASE_BIN" "$i"
  fi
  echo "    pair $((i + 1))/$PAIRS done" >&2
done

python3 - "$RUN_DIR" "${SHA:0:12}" <<'EOF'
import json, statistics, sys

run_dir, base_sha = sys.argv[1], sys.argv[2]
def load(side):
    with open(f"{run_dir}/results-{side}.jsonl") as f:
        return [json.loads(line) for line in f]
base, change = load("base"), load("change")

with open("BENCHMARK.json") as f:
    bench = json.load(f)
higher = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"] + bench["per_layer"]}

names = []
for run in base + change:
    for name in run["metrics"]:
        if name not in names:
            names.append(name)

def values(runs, name):
    return [r["metrics"].get(name, {}).get("value") for r in runs]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def ok(run):
    return run.get("correct") is True and run.get("failed") == 0

print(f"baseline {base_sha} vs working tree, {len(base)} pairs")
print()
print("pair | " + " | ".join(f"{n} base / change" for n in names))
for i, (b, c) in enumerate(zip(base, change)):
    cells = []
    for n in names:
        bv = b["metrics"].get(n, {}).get("value")
        cv = c["metrics"].get(n, {}).get("value")
        cells.append(f"{bv} / {cv}")
    first = "base" if i % 2 == 0 else "change"
    print(f"{i + 1} ({first} first) | " + " | ".join(cells))
print()
print("side   | correct runs | failed ops (sum)")
for side, runs in (("base", base), ("change", change)):
    print(f"{side:6} | {sum(ok(r) for r in runs)}/{len(runs)} | {sum(r.get('failed', 0) for r in runs)}")
print()
print("metric | base median [q1, q3] | change median [q1, q3] | change/base | change wins | gain > base IQR")
for n in names:
    bv, cv = values(base, n), values(change, n)
    pairs = [(b, c) for b, c in zip(bv, cv) if b is not None and c is not None]
    if not pairs:
        continue
    bq = quartiles([b for b, _ in pairs])
    cq = quartiles([c for _, c in pairs])
    up = higher.get(n, False)
    wins = sum((c > b) if up else (c < b) for b, c in pairs)
    ratio = cq[1] / bq[1] if bq[1] else float("nan")
    gain = (cq[1] - bq[1]) if up else (bq[1] - cq[1])
    iqr = bq[2] - bq[0]
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    print(f"{n} | {fmt(bq)} | {fmt(cq)} | {ratio:.4f} | {wins}/{len(pairs)} | {'yes' if gain > iqr else 'no'}")
EOF
