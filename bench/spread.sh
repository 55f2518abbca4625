#!/usr/bin/env bash
# Repeatability check for the benchmark's bounds. Runs every workload RUNS
# times per seed (seeds 1 and 2) and prints, per end-to-end metric and seed,
# the median over runs and the largest deviation of one run from that
# median, as a share of it.
#
#   bash bench/spread.sh [RUNS] [SECONDS]      # defaults: 5 runs, 15 s
#
# Runs are sequential, so the whole check takes about
# 4 workloads x 2 seeds x RUNS x ~20 s.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-5}"
seconds="${2:-15}"

summarize=$(
	cat <<'PY'
import collections, json, statistics, sys

values = collections.defaultdict(list)
units = {}
for line in sys.stdin:
    w, seed, result = line.split(" ", 2)
    res = json.loads(result)
    if not res["correct"]:
        sys.exit("%s seed %s: incorrect run" % (w, seed))
    for name, m in res["metrics"].items():
        values[(w, name, seed)].append(m["value"])
        units[name] = m["unit"]

print("%-14s %-15s %-6s %16s %8s %16s %8s" % (
    "workload", "metric", "unit", "seed 1 median", "max dev", "seed 2 median", "max dev"))
for w, name in sorted({(w, n) for (w, n, _) in values}):
    row = "%-14s %-15s %-6s" % (w, name, units[name])
    for seed in ("1", "2"):
        xs = values[(w, name, seed)]
        med = statistics.median(xs)
        dev = max(abs(x - med) for x in xs) / med if med else 0.0
        row += " %16.6g %7.2f%%" % (med, 100 * dev)
    print(row)
PY
)

for w in game-steady many-sessions fleet-churn traffic-chaos; do
	for seed in 1 2; do
		for _ in $(seq "$runs"); do
			printf '%s %s ' "$w" "$seed"
			bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1
		done
	done
done | python3 -c "$summarize"
