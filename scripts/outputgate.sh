#!/usr/bin/env bash
# Output gate: a refactor of the experiment code must not move a single byte
# of what the CLIs print. Builds cmd/figures, cmd/analyze, cmd/hybridsim and
# examples/architectures (whose D = 0.5 rows EXPERIMENTS.md quotes) at the
# parent (scripts/benchparent.sh: the merge-base with main, exported
# with `git archive`) and at this working tree, runs the fixed invocation
# list below with each, and diffs the outputs file by file; it also diffs the
# custom metrics (not ns/op) of the root package's figure, max-throughput,
# ablation and architecture benchmarks at -benchtime 1x. Under a minute on a
# 2-vCPU host.
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
	(cd "$src" && for cmd in figures analyze hybridsim; do go build -o "$bin/$cmd" "./cmd/$cmd"; done &&
		go build -o "$bin/architectures" ./examples/architectures)
	(
		cd "$o"
		"$bin/figures" -quick -csv all.csv >all.txt
		"$bin/figures" -quick -fig 4.4 -plot >fig44-plot.txt
		"$bin/figures" -quick -fig 4.3 -reps 3 -parallel 2 -csv fig43-reps.csv >fig43-reps.txt
		"$bin/figures" -quick -fig max >max.txt
		"$bin/figures" -quick -fig arch >arch.txt
		"$bin/architectures" >example-architectures.txt
		"$bin/analyze" -pship 0.3 -validate >validate.txt
		"$bin/hybridsim" -rate 1.5 -warmup 20 -duration 100 -reps 3 >hybridsim-reps.txt
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

status=0
for f in "$work"/parent/*; do
	name="$(basename "$f")"
	if diff -u "$f" "$work/change/$name" >"$work/$name.diff"; then
		echo "same  $name"
	else
		echo "DIFF  $name (see $work/$name.diff)"
		status=1
	fi
done
exit $status
