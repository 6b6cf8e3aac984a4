#!/usr/bin/env bash
# Paired parent/change runs of one bench/hybridbench workload, in one session
# so host drift cancels (ROADMAP item 1; the choosing-metrics guide, §8).
#
#   scripts/benchpair.sh <workload> [pairs=10]
#
# The parent (scripts/benchparent.sh: the merge-base with main, exported with
# `git archive` into a scratch directory) is built there by its own
# bench/hybridbench/run.sh; the change is this working tree. Each
# pair runs both sides at one fresh seed, alternating which side goes first.
# Prints every end-to-end metric's median and quartiles per side, wins and
# ties, and the verdict for the claimed metric: a gain needs the change to win
# at least 9/10 of the pairs (ties count for neither) and the medians to
# differ by more than the parent's interquartile distance.
#
# Environment (and BASE, SCRATCH: see scripts/benchparent.sh):
#   METRIC    the claimed metric (default txn_per_s)
#   SEED0     first seed (default 101; 1-8 carry pinned digests and were used
#             while the benchmark was written, so claims use others)
#   SECONDS_  --seconds for every run (default: BENCHMARK.json's run_seconds)
set -euo pipefail

workload="${1:?usage: scripts/benchpair.sh <workload> [pairs=10]}"
pairs="${2:-10}"
metric="${METRIC:-txn_per_s}"
seed0="${SEED0:-101}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

seconds="${SECONDS_:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)}"

. scripts/benchparent.sh
results="$scratch/benchpair-$workload.tsv" # side, seed, metric, value
: >"$results"

echo "# benchpair: $workload, $pairs pairs at --seconds $seconds, seeds $seed0..$((seed0 + pairs - 1))"
echo "# parent $(git log -1 --format='%h %s' "$base" | cut -c1-100)"
echo "# change $(git describe --always --dirty) (working tree)"

# run_side <side> <dir> <seed>: one benchmark run; its "<workload> <metric>
# <value> <unit>" lines go to the results file. A failed run or a run that
# reports failed operations aborts the comparison.
run_side() {
	local side="$1" dir="$2" seed="$3" out
	out="$(bash "$dir/bench/hybridbench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>&1)" || {
		echo "$out" >&2
		echo "benchpair: $side run failed (seed $seed)" >&2
		exit 1
	}
	if ! echo "$out" | tail -1 | grep -q '"correct":true.*"failed":0[,}]'; then
		echo "$out" | tail -3 >&2
		echo "benchpair: $side run incorrect or with failed operations (seed $seed)" >&2
		exit 1
	fi
	echo "$out" | awk -v w="$workload" -v side="$side" -v seed="$seed" \
		'$1 == w && NF == 4 { print side "\t" seed "\t" $2 "\t" $3 }' >>"$results"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		run_side parent "$parent" "$seed"
		run_side change "$root" "$seed"
	else
		run_side change "$root" "$seed"
		run_side parent "$parent" "$seed"
	fi
	awk -F'\t' -v s="$seed" -v m="$metric" '$2 == s && $3 == m { v[$1] = $4 }
		END { printf "# pair seed %s: %s parent %.6g change %.6g\n", s, m, v["parent"], v["change"] }' "$results"
done

# Name and direction ("higher"/"lower") of each metric, in BENCHMARK.json's
# order: "name" and "better" are fields of one object, name first.
better="$(awk -F'"' '/"name":/ { n = $4 } /"better":/ { print n "\t" $4 }' BENCHMARK.json)"

echo
printf '%-16s %-7s %14s %14s %14s   %s\n' metric side median q1 q3 "change wins/ties/losses"
BETTER="$better" awk -F'\t' -v claimed="$metric" -v pairs="$pairs" '
function quart(a, n, k,    j, d) { # Python statistics.quantiles(n=4), exclusive
	if (n == 1) return a[1]
	j = int(k * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
	d = k * (n + 1) - j * 4
	return (a[j] * (4 - d) + a[j + 1] * d) / 4
}
function med(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
function sorted(side, m, out,    n, i, j, t) { # ascending copy of one side of one metric
	split("", out)
	n = cnt[side, m]
	for (i = 1; i <= n; i++) {
		t = run[side, m, i]
		for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]
		out[j + 1] = t
	}
	return n
}
{ val[$1, $2, $3] = $4 + 0; run[$1, $3, ++cnt[$1, $3]] = $4 + 0; seeds[$2] = 1 }
END {
	need = int((9 * pairs + 9) / 10)
	nm = split(ENVIRON["BETTER"], lines, "\n")
	for (k = 1; k <= nm; k++) {
		split(lines[k], f, "\t"); m = f[1]; higher = (f[2] == "higher")
		if (!(("parent", m) in cnt)) continue
		np = sorted("parent", m, P); nc = sorted("change", m, C)
		wins = ties = losses = 0
		for (s in seeds) {
			p = val["parent", s, m]; c = val["change", s, m]
			if (c == p) ties++
			else if (higher == (c > p)) wins++
			else losses++
		}
		printf "%-16s %-7s %14.6g %14.6g %14.6g\n", m, "parent", med(P, np), quart(P, np, 1), quart(P, np, 3)
		printf "%-16s %-7s %14.6g %14.6g %14.6g   %d/%d/%d\n", m, "change", med(C, nc), quart(C, nc, 1), quart(C, nc, 3), wins, ties, losses
		if (m == claimed) {
			iqr = quart(P, np, 3) - quart(P, np, 1)
			gap = med(C, nc) - med(P, np); if (!higher) gap = -gap
			verdict = sprintf("%s: change wins %d of %d pairs (a gain needs >= %d), median gap %+.4g (%+.1f%%) against a parent IQR of %.4g -> %s",
				m, wins, pairs, need, gap, 100 * gap / med(P, np), iqr,
				(wins >= need && gap > iqr) ? "GAIN" : (losses >= need && -gap > iqr) ? "LOSS" : "NO CLAIM")
		}
	}
	print ""
	print "verdict: " (verdict != "" ? verdict : "metric " claimed " is not reported by this workload") \
		(pairs < 10 ? " (fewer than ten pairs: indicative only)" : "")
}' "$results"
echo "# raw values: $results"
