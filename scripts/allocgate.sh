#!/usr/bin/env bash
# Allocation gate: allocs_per_txn of the three simulator workloads is exactly
# reproducible at a fixed seed, and on live-wire allocs_per_txn and
# peak_rss_mb repeat within ~0.3 % and ~1 % — far inside their bounds, and
# exactly what a buffer that grows whether or not anyone asked for it would
# move — so one run per side decides each. For every row below, runs
# bench/hybridbench/run.sh --workload W --seed 3 on the parent
# (scripts/benchparent.sh: the merge-base with main, exported with
# `git archive`) and on this working tree, and fails if the change reads
# higher than the parent by more than the bound BENCHMARK.json sets for the
# metric.
#
#   scripts/allocgate.sh        (make alloc-gate; BASE, SCRATCH as in benchpair.sh)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
. scripts/benchparent.sh

# bound <metric>: the regression bound BENCHMARK.json sets for it.
bound() {
	awk -F'[:,]' -v m="$1" '$0 ~ "\"name\": *\"" m "\"" { found = 1 } found && /"bound"/ { print $2 + 0; exit }' BENCHMARK.json
}
echo "# allocgate: parent $(git log -1 --format='%h %s' "$base" | cut -c1-80)"

# measure <dir> <workload>: the metric lines of one correct run of that checkout.
measure() {
	local out
	out="$(bash "$1/bench/hybridbench/run.sh" --workload "$2" --seed 3 --trace 0 2>&1)" || {
		echo "$out" >&2
		echo "allocgate: $2 failed in $1" >&2
		exit 1
	}
	echo "$out" | awk -v w="$2" '$1 == w'
}

status=0
for row in "sim-paper allocs_per_txn" "sim-contended allocs_per_txn" "sim-scale1000 allocs_per_txn" \
	"live-wire allocs_per_txn peak_rss_mb"; do
	set -- $row
	w="$1"
	shift
	p="$(measure "$parent" "$w")"
	c="$(measure "$root" "$w")"
	for m in "$@"; do
		awk -v w="$w" -v m="$m" -v b="$(bound "$m")" \
			-v p="$(echo "$p" | awk -v m="$m" '$2 == m { print $3 }')" \
			-v c="$(echo "$c" | awk -v m="$m" '$2 == m { print $3 }')" 'BEGIN {
			ok = (p > 0 && c > 0 && c <= p * (1 + b))
			printf "%-14s %-14s parent %.5f change %.5f (%+.3f%%, bound +%g%%) %s\n", w, m, p, c, 100 * (c - p) / p, 100 * b, ok ? "ok" : "FAIL"
			exit !ok
		}' || status=1
	done
done
exit $status
