#!/usr/bin/env bash
# Allocation gate: allocs_per_txn of the three simulator workloads is exactly
# reproducible at a fixed seed, so one run per side decides it. For each of
# sim-paper, sim-contended and sim-scale1000, runs bench/hybridbench/run.sh
# --workload W --seed 3 on the parent (scripts/benchparent.sh: the merge-base
# with main, exported with `git archive`) and on this working tree, and fails
# if the change allocates more per transaction than the parent by more than
# the bound BENCHMARK.json sets for allocs_per_txn.
#
#   scripts/allocgate.sh        (make alloc-gate; BASE, SCRATCH as in benchpair.sh)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
. scripts/benchparent.sh

bound="$(awk -F'[:,]' '/"name": *"allocs_per_txn"/ { found = 1 } found && /"bound"/ { print $2 + 0; exit }' BENCHMARK.json)"
echo "# allocgate: parent $(git log -1 --format='%h %s' "$base" | cut -c1-80), bound +${bound}"

# allocs <dir> <workload>: allocs_per_txn of one correct run of that checkout.
allocs() {
	local out
	out="$(bash "$1/bench/hybridbench/run.sh" --workload "$2" --seed 3 --trace 0 2>&1)" || {
		echo "$out" >&2
		echo "allocgate: $2 failed in $1" >&2
		exit 1
	}
	echo "$out" | awk -v w="$2" '$1 == w && $2 == "allocs_per_txn" { print $3 }'
}

status=0
for w in sim-paper sim-contended sim-scale1000; do
	p="$(allocs "$parent" "$w")"
	c="$(allocs "$root" "$w")"
	awk -v w="$w" -v p="$p" -v c="$c" -v b="$bound" 'BEGIN {
		ok = (p > 0 && c > 0 && c <= p * (1 + b))
		printf "%-14s allocs_per_txn parent %.5f change %.5f (%+.3f%%) %s\n", w, p, c, 100 * (c - p) / p, ok ? "ok" : "FAIL"
		exit !ok
	}' || status=1
done
exit $status
