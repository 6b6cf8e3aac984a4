// Package replicate runs independent replications of a simulation
// configuration (varying only the random seed) and aggregates the results
// with confidence intervals — the standard methodology for defending a
// simulation comparison like the paper's §4 beyond a single sample path.
package replicate

import (
	"fmt"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/routing"
	"hybriddb/internal/runner"
	"hybriddb/internal/stats"
)

// Estimate is an aggregated scalar across replications.
type Estimate struct {
	Mean      float64
	HalfWidth float64 // approximate 95% confidence half-width
	Min       float64
	Max       float64
}

// String renders "mean ± half-width".
func (e Estimate) String() string {
	return fmt.Sprintf("%.4f ± %.4f", e.Mean, e.HalfWidth)
}

// Overlaps reports whether two estimates' 95% intervals overlap — if they do
// not, the difference is (informally) significant.
func (e Estimate) Overlaps(other Estimate) bool {
	return e.Mean-e.HalfWidth <= other.Mean+other.HalfWidth &&
		other.Mean-other.HalfWidth <= e.Mean+e.HalfWidth
}

func estimate(w *stats.Welford) Estimate {
	return Estimate{Mean: w.Mean(), HalfWidth: w.CI95(), Min: w.Min(), Max: w.Max()}
}

// Summary aggregates the headline metrics across replications.
type Summary struct {
	Strategy     string
	Replications int

	MeanRT       Estimate
	Throughput   Estimate
	ShipFraction Estimate
	UtilLocal    Estimate
	UtilCentral  Estimate
	AbortRate    Estimate // aborts per completed transaction

	Results []hybrid.Result // per-replication raw results
}

// Points is the replication schedule: runs copies of cfg, named
// "replication 0", "replication 1", …, that differ only in their seeds,
// cfg.Seed, cfg.Seed+1, ….
func Points(cfg hybrid.Config, runs int) []runner.Point {
	points := make([]runner.Point, max(runs, 0))
	for i := range points {
		points[i] = runner.Point{Name: fmt.Sprintf("replication %d", i), Cfg: cfg}
		points[i].Cfg.Seed = cfg.Seed + uint64(i)
	}
	return points
}

// Run executes runs independent replications of cfg (see Points) across
// GOMAXPROCS workers and aggregates the results.
func Run(cfg hybrid.Config, mk func(hybrid.Config) (routing.Strategy, error), runs int) (Summary, error) {
	return RunOpts(Points(cfg, runs), runner.Maker{Label: "strategy", Make: mk}, runner.Options{})
}

// RunOpts sweeps mk over the replication points, one run each on the point's
// own seed, and aggregates the results in point order — bit-identical for
// any pool options. When the context cancels the pool mid-sweep, the summary
// aggregates the replications that finished (Replications reports that
// count; Results keeps full length with zero entries, Window == 0, for
// never-started replications) and the context's error is returned alongside
// it.
func RunOpts(points []runner.Point, mk runner.Maker, opt runner.Options) (Summary, error) {
	if len(points) == 0 {
		return Summary{}, fmt.Errorf("replicate: no runs")
	}
	cells, runErr := runner.Sweep(points, []runner.Maker{mk}, 1, opt)
	if cells == nil {
		return Summary{}, runErr
	}
	var (
		rt, tput, ship, utilL, utilC, aborts stats.Welford
		name                                 string
		done                                 int
		results                              = make([]hybrid.Result, len(points))
	)
	for i, row := range cells[0] {
		r := row[0].Result
		results[i] = r
		if r.Window <= 0 {
			continue // cancelled before this replication started
		}
		done++
		name = r.Strategy
		rt.Add(r.MeanRT)
		tput.Add(r.Throughput)
		ship.Add(r.ShipFraction)
		utilL.Add(r.UtilLocalMean)
		utilC.Add(r.UtilCentral)
		if completed := r.CompletedLocalA + r.CompletedShippedA + r.CompletedClassB; completed > 0 {
			aborts.Add(float64(r.TotalAborts()) / float64(completed))
		}
	}
	return Summary{
		Strategy:     name,
		Replications: done,
		MeanRT:       estimate(&rt),
		Throughput:   estimate(&tput),
		ShipFraction: estimate(&ship),
		UtilLocal:    estimate(&utilL),
		UtilCentral:  estimate(&utilC),
		AbortRate:    estimate(&aborts),
		Results:      results,
	}, runErr
}

// Compare runs two strategies over the same configuration and replication
// count and reports whether the first's mean response time is significantly
// lower (95% intervals do not overlap).
func Compare(cfg hybrid.Config, a, b func(hybrid.Config) (routing.Strategy, error), runs int) (better bool, sa, sb Summary, err error) {
	sa, err = Run(cfg, a, runs)
	if err != nil {
		return false, sa, sb, err
	}
	sb, err = Run(cfg, b, runs)
	if err != nil {
		return false, sa, sb, err
	}
	better = sa.MeanRT.Mean < sb.MeanRT.Mean && !sa.MeanRT.Overlaps(sb.MeanRT)
	return better, sa, sb, nil
}
