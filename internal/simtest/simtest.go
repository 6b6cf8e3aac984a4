// Package simtest is the standing correctness harness of the reproduction:
// machine-checked invariants over full simulation runs, a model↔simulation
// differential gate with versioned tolerance bands, and native fuzz targets.
// It exists so the queueing-theoretic properties the paper argues informally
// ("simulation estimates are shown to support this methodology", §3.1) are
// enforced on every change — a refactor of the event kernel, the lock
// manager, a routing policy, or the fixed-point solver that silently bends
// any of them fails a test here with a one-line deterministic repro.
//
// Three pillars (DESIGN.md §11 catalogs every relation):
//
//   - Metamorphic/property suite: Little's law at every site scope,
//     response-time monotonicity in arrival rate, policy-dominance relations
//     from the paper, conservation laws at the horizon, abort-cause/topology
//     consistency. All runs go through internal/runner with seeds that are a
//     pure function of the test inputs.
//   - Differential gate: the ModelValidation table promoted to an enforced
//     test — model vs. simulation response times and utilizations must agree
//     within the bands pinned in testdata/tolerances.json at every grid
//     point with ρ < 0.7.
//   - Native fuzzing: FuzzConfig here, FuzzHeap in internal/sim, FuzzLock in
//     internal/lock; each runs for 10s per CI pass (make fuzz-smoke).
package simtest

import (
	"fmt"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/routing"
	"hybriddb/internal/runner"
)

// repro renders the one-line deterministic reproduction of a run: the seed
// plus every configuration field a failure could depend on. Every invariant
// failure in this package prints one, so a red CI line can be replayed
// locally with a two-line main().
func repro(strategy string, cfg hybrid.Config) string {
	return fmt.Sprintf(
		"repro: strategy=%s seed=%d rate/site=%g sites=%d warmup=%g duration=%g commDelay=%g pLocal=%g pWrite=%g calls=%d lockspace=%d feedback=%s skew=%g hotFrac=%g coldFetch=%g epoch=%g",
		strategy, cfg.Seed, cfg.ArrivalRatePerSite, cfg.Sites, cfg.Warmup,
		cfg.Duration, cfg.CommDelay, cfg.PLocal, cfg.PWrite, cfg.CallsPerTxn,
		cfg.Lockspace, cfg.Feedback, cfg.SkewTheta, cfg.CentralHotFraction,
		cfg.ColdFetchDelay, cfg.EpochLength)
}

// baseConfig is the harness's standard operating configuration: the paper's
// §4.1 parameters with a measurement window long enough (500 simulated
// seconds) that boundary effects sit far below every tolerance used here.
func baseConfig() hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Warmup = 100
	cfg.Duration = 500
	return cfg
}

// strategyCase names a policy under test together with its constructor.
type strategyCase struct {
	label string
	make  func(cfg hybrid.Config) (routing.Strategy, error)
}

// caseNone is the no-load-sharing baseline.
func caseNone() strategyCase {
	return strategyCase{label: "none", make: func(hybrid.Config) (routing.Strategy, error) {
		return routing.AlwaysLocal{}, nil
	}}
}

// caseStatic ships with fixed probability p.
func caseStatic(p float64) strategyCase {
	return strategyCase{
		label: fmt.Sprintf("static(%.2f)", p),
		make: func(cfg hybrid.Config) (routing.Strategy, error) {
			return routing.NewStatic(p, cfg.Seed^0x1234abcd), nil
		},
	}
}

// caseQueueLength is the send-to-shorter-queue heuristic of §3.2.4.
func caseQueueLength() strategyCase {
	return strategyCase{label: "queue-length", make: func(hybrid.Config) (routing.Strategy, error) {
		return routing.QueueLength{}, nil
	}}
}

// caseThreshold is the tuned queue-length heuristic with threshold theta.
func caseThreshold(theta float64) strategyCase {
	return strategyCase{
		label: fmt.Sprintf("queue-threshold(%+.2f)", theta),
		make: func(hybrid.Config) (routing.Strategy, error) {
			return routing.QueueThreshold{Theta: theta}, nil
		},
	}
}

// caseMinAverage is the paper's best dynamic strategy (§3.2.2, n-in-system
// estimator).
func caseMinAverage() strategyCase {
	return strategyCase{label: "min-average/nis", make: func(cfg hybrid.Config) (routing.Strategy, error) {
		return routing.MinAverage{Params: cfg.ModelParams(), Estimator: routing.FromInSystem}, nil
	}}
}

// sweepResults fans one strategy across the given rates × replications
// through runner.Sweep and returns results indexed [rate][rep]. Seeds follow
// runner.RunSeed, so every run is a pure function of (base seed, label, rate
// index, replication index) — bit-identical at any parallelism.
func sweepResults(t *testing.T, sc strategyCase, base hybrid.Config, rates []float64, reps int) [][]hybrid.Result {
	t.Helper()
	points := make([]runner.Point, len(rates))
	for i, rate := range rates {
		points[i] = runner.Point{Name: fmt.Sprintf("rate %v", rate), Cfg: base}
		points[i].Cfg.ArrivalRatePerSite = rate
	}
	cells, err := runner.Sweep(points, []runner.Maker{{Label: sc.label, Make: sc.make}}, reps, runner.Options{})
	if err != nil {
		t.Fatalf("sweep %s: %v", sc.label, err)
	}
	out := make([][]hybrid.Result, len(rates))
	for ri, runs := range cells[0] {
		for _, c := range runs {
			out[ri] = append(out[ri], c.Result)
		}
	}
	return out
}

// meanOver averages a metric across one point's replications.
func meanOver(runs []hybrid.Result, metric func(hybrid.Result) float64) float64 {
	sum := 0.0
	for _, r := range runs {
		sum += metric(r)
	}
	return sum / float64(len(runs))
}
