#!/usr/bin/env bash
# Output gate: a refactor of the experiment code must not move a single byte
# of what the CLIs print. Builds cmd/figures, cmd/analyze and cmd/hybridsim
# at the parent (scripts/benchparent.sh: the merge-base with main, exported
# with `git archive`) and at this working tree, runs the fixed invocation
# list below with each, and diffs the outputs file by file; it also diffs the
# custom metrics (not ns/op) of the root package's figure, max-throughput,
# ablation and architecture benchmarks at -benchtime 1x. The working tree's
# outputs are then rendered a second time and diffed against the first (a
# fixed seed must reproduce itself), and its hybridsim -shards 1 and
# -shards 4 outputs against each other (sharding must not change a result).
# About a minute on a 2-vCPU host.
#
#   scripts/outputgate.sh        (make output-gate; BASE, SCRATCH as in benchpair.sh)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
. scripts/benchparent.sh
echo "# outputgate: parent $(git log -1 --format='%h %s' "$base" | cut -c1-80)"

work="$scratch/outputgate"
rm -rf "$work"

# render <src> <side>: build the three CLIs from checkout src and write every
# invocation's output under $work/<side>.
render() {
	local src="$1" bin="$work/bin-$2" o="$work/$2"
	mkdir -p "$bin" "$o"
	(cd "$src" && for cmd in figures analyze hybridsim; do go build -o "$bin/$cmd" "./cmd/$cmd"; done)
	(
		cd "$o"
		"$bin/figures" -quick -csv all.csv >all.txt
		"$bin/figures" -quick -fig 4.4 -plot >fig44-plot.txt
		"$bin/figures" -quick -fig 4.3 -reps 3 -parallel 2 -csv fig43-reps.csv >fig43-reps.txt
		"$bin/figures" -quick -fig max >max.txt
		"$bin/figures" -quick -fig arch >arch.txt
		"$bin/analyze" -pship 0.3 -validate >validate.txt
		"$bin/hybridsim" -rate 1.5 -warmup 20 -duration 100 -reps 3 >hybridsim-reps.txt
		"$bin/hybridsim" -rate 2.5 -warmup 20 -duration 100 -shards 1 >hybridsim-shards1.txt
		"$bin/hybridsim" -rate 2.5 -warmup 20 -duration 100 -shards 4 >hybridsim-shards4.txt
		"$bin/figures" -quick -fig 4.1 -manifest RUN_fig41.json >/dev/null 2>&1
		# The provenance line names the build and the wall clock; drop it.
		"$bin/analyze" -manifest RUN_fig41.json | sed '/^built with /d' >manifest-summary.txt
		rm RUN_fig41.json
	) 2>"$work/$2.stderr"
	(cd "$src" && go test -run '^$' -bench 'Fig|MaxThroughput|Ablation|Architectures' -benchtime 1x .) |
		awk '/^Benchmark/ { line = $1; for (i = 3; i < NF; i += 2) if ($(i + 1) != "ns/op") line = line " " $i " " $(i + 1); print line }' \
			>"$o/bench-metrics.txt"
}

render "$parent" parent
render "$root" change
render "$root" rerun

status=0
# same <a> <b> <label>: diff two outputs and report the verdict under label.
same() {
	if diff -u "$1" "$2" >"$work/$3.diff"; then
		echo "same  $3"
	else
		echo "DIFF  $3 (see $work/$3.diff)"
		status=1
	fi
}
for f in "$work"/parent/*; do
	name="$(basename "$f")"
	same "$f" "$work/change/$name" "$name"
done
for f in "$work"/change/*; do
	name="$(basename "$f")"
	same "$f" "$work/rerun/$name" "rerun-$name"
done
same "$work/change/hybridsim-shards1.txt" "$work/change/hybridsim-shards4.txt" shards1-vs-shards4.txt
exit $status
