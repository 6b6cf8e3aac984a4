// Benchmarks regenerating the paper's evaluation. Each BenchmarkFigNN runs
// the corresponding entry of experiments.Figures over a reduced sweep (short
// simulations so benchmark iterations stay tractable) and reports headline
// metrics of the resulting series; cmd/figures regenerates the full-length
// tables. The *shape* metrics reported here are the ones the paper reads off
// each figure.
package hybriddb_test

import (
	"testing"

	"hybriddb"
	"hybriddb/internal/experiments"
)

// benchOptions keeps benchmark sweeps short: two rates bracketing the
// interesting region, 150 simulated seconds after 50 of warmup.
func benchOptions() experiments.Options {
	base := hybriddb.DefaultConfig()
	base.Warmup = 50
	base.Duration = 150
	return experiments.Options{
		Base:         base,
		RatesPerSite: []float64{1.5, 2.8},
	}
}

// lastY returns the final-point Y of the labelled curve, or -1.
func lastY(fig experiments.Figure, label string) float64 {
	for _, c := range fig.Curves {
		if c.Label == label && len(c.Points) > 0 {
			return c.Points[len(c.Points)-1].Y
		}
	}
	return -1
}

// runFigure runs the table's figure id b.N times and returns the last run.
func runFigure(b *testing.B, id string, opt experiments.Options) experiments.Figure {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("no figure %s", id)
	}
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		if fig, err = e.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

func benchFigure(b *testing.B, id, metric, label string) {
	b.Helper()
	b.ReportMetric(lastY(runFigure(b, id, benchOptions()), label), metric)
}

// BenchmarkFig41 regenerates Figure 4.1 (none / static / best dynamic,
// D=0.2 s) and reports the best dynamic strategy's high-load response time.
func BenchmarkFig41(b *testing.B) { benchFigure(b, "4.1", "rt28tps/s", "min-average/nis") }

// BenchmarkFig42 regenerates Figure 4.2 (dynamic schemes A–F, D=0.2 s).
func BenchmarkFig42(b *testing.B) { benchFigure(b, "4.2", "rt28tps/s", "min-average/nis") }

// BenchmarkFig43 regenerates Figure 4.3 (shipped fraction, D=0.2 s) and
// reports the best dynamic strategy's high-load ship fraction.
func BenchmarkFig43(b *testing.B) { benchFigure(b, "4.3", "ship28tps", "min-average/nis") }

// BenchmarkFig44 regenerates Figure 4.4 (threshold tuning, D=0.2 s) and
// reports the θ=-0.2 curve the paper singles out.
func BenchmarkFig44(b *testing.B) { benchFigure(b, "4.4", "rt28tps/s", "threshold(-0.2)") }

// BenchmarkFig45 regenerates Figure 4.5 (as 4.1 at D=0.5 s).
func BenchmarkFig45(b *testing.B) { benchFigure(b, "4.5", "rt28tps/s", "min-average/nis") }

// BenchmarkFig46 regenerates Figure 4.6 (shipped fraction, D=0.5 s) and
// reports the static curve with the paper's inflection.
func BenchmarkFig46(b *testing.B) { benchFigure(b, "4.6", "ship28tps", "static*") }

// BenchmarkFig47 regenerates Figure 4.7 (threshold tuning, D=0.5 s).
func BenchmarkFig47(b *testing.B) { benchFigure(b, "4.7", "rt28tps/s", "threshold(+0.1)") }

// BenchmarkMaxThroughput regenerates the §4.2 maximum-supportable-rate
// comparison (the "about 20 tps without sharing, about 30 with static"
// reading of Figure 4.1) over Figure 4.1's strategies and reports the best
// dynamic strategy's maximum.
func BenchmarkMaxThroughput(b *testing.B) {
	opt := benchOptions()
	opt.RatesPerSite = []float64{2.0, 2.5, 3.0, 3.4}
	rows, err := experiments.MaxThroughput(runFigure(b, "4.1", opt), 4.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[len(rows)-1].MaxTPS, "maxtps")
}

// BenchmarkAblationWriteMix sweeps the exclusive-lock probability — the
// sensitivity of the headline result to the substituted trace parameter
// (DESIGN.md §5).
func BenchmarkAblationWriteMix(b *testing.B) {
	base := benchOptions().Base
	base.ArrivalRatePerSite = 2.5
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationWriteMix(base, []float64{0.1, 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].Improvement, "speedupx")
}

// BenchmarkAblationFeedback compares the central-state feedback modes (the
// delayed-information discussion of §4.2).
func BenchmarkAblationFeedback(b *testing.B) {
	base := benchOptions().Base
	base.ArrivalRatePerSite = 2.5
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationFeedback(base)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].BestRT, "idealrt/s")
}

// BenchmarkArchitectures regenerates the introduction's three-architecture
// comparison (§1) at one locality point and reports the hybrid's advantage
// over the worse pure architecture.
func BenchmarkArchitectures(b *testing.B) {
	cfg := hybriddb.DefaultConfig()
	cfg.Warmup, cfg.Duration = 30, 100
	cfg.ArrivalRatePerSite = 1.0
	cfg.PLocal = 0.75
	var cmp hybriddb.ArchComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = hybriddb.CompareArchitectures(cfg, hybriddb.DefaultLockTimeout)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := cmp.Centralized.MeanRT
	if cmp.Distributed.MeanRT > worst {
		worst = cmp.Distributed.MeanRT
	}
	b.ReportMetric(worst/cmp.Hybrid.MeanRT, "hybrid-speedupx")
}

// BenchmarkAblationBatching sweeps the §2 update-batching window and reports
// the message reduction of a 0.5 s window.
func BenchmarkAblationBatching(b *testing.B) {
	base := hybriddb.DefaultConfig()
	base.Warmup, base.Duration = 30, 100
	base.ArrivalRatePerSite = 2.0
	base.UpdateProcInstr = 60_000
	var rows []experiments.BatchingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationBatching(base, []float64{0, 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Messages)/float64(rows[1].Messages), "msg-reductionx")
}

// benchReplicatedFig42 regenerates Figure 4.2 with 4 replications per sweep
// point at a fixed worker count. Comparing the Parallel variant against
// Serial measures the experiment runner's wall-clock speedup; on a 4-core
// machine the parallel sweep is expected to run >= 2x faster while producing
// bit-identical curves (the determinism tests assert the identity).
func benchReplicatedFig42(b *testing.B, parallelism int) {
	b.Helper()
	opt := benchOptions()
	opt.Replications = 4
	opt.Parallelism = parallelism
	b.ReportMetric(lastY(runFigure(b, "4.2", opt), "min-average/nis"), "rt28tps/s")
}

// BenchmarkFig42Reps4Serial is the replicated sweep on one worker.
func BenchmarkFig42Reps4Serial(b *testing.B) { benchReplicatedFig42(b, 1) }

// BenchmarkFig42Reps4Parallel4 fans the same sweep across 4 workers.
func BenchmarkFig42Reps4Parallel4(b *testing.B) { benchReplicatedFig42(b, 4) }

// BenchmarkFig42Reps4ParallelMax uses every core (GOMAXPROCS workers).
func BenchmarkFig42Reps4ParallelMax(b *testing.B) { benchReplicatedFig42(b, 0) }
