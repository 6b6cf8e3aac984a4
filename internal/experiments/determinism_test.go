package experiments

import (
	"math"
	"reflect"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/runner"
	"hybriddb/internal/stats"
)

// serialSweep is the pre-runner reference implementation: one goroutine, one
// engine at a time, in (strategy, rate, replication) order, using the same
// seed schedule as the parallel path. The determinism regression below holds
// the parallel runner to bit-identical agreement with it.
func serialSweep(opt Options, e Experiment) ([]Curve, error) {
	makers, err := parseSpecs(e.Strategies...)
	if err != nil {
		return nil, err
	}
	reps := max(opt.Replications, 1)
	curves := make([]Curve, 0, len(makers))
	for _, mk := range makers {
		curve := Curve{Label: mk.Label}
		for ri, rate := range opt.RatesPerSite {
			p := Point{
				RatePerSite:  rate,
				TotalRate:    rate * float64(opt.Base.Sites),
				Replications: reps,
			}
			var w stats.Welford
			for rep := 0; rep < reps; rep++ {
				cfg := opt.Base
				cfg.CommDelay = e.CommDelay
				cfg.ArrivalRatePerSite = rate
				cfg.Seed = runner.RunSeed(opt.Base.Seed, mk.Label, ri, rep)
				strat, err := mk.Make(cfg)
				if err != nil {
					return nil, err
				}
				engine, err := hybrid.New(cfg, strat)
				if err != nil {
					return nil, err
				}
				res := engine.Run()
				p.Results = append(p.Results, res)
				w.Add(e.Metric(res))
			}
			p.Result = p.Results[0]
			if reps == 1 {
				p.Y = e.Metric(p.Result)
			} else {
				p.Y = w.Mean()
				p.StdDev = w.StdDev()
				p.HalfWidth = w.CI95()
			}
			curve.Points = append(curve.Points, p)
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// sweepOf is a figure-shaped experiment over the given strategies at the
// default delay, reading mean response time.
func sweepOf(specs ...string) Experiment {
	return Experiment{CommDelay: 0.2, Metric: meanRT, Strategies: specs}
}

func runCurves(t *testing.T, e Experiment, opt Options) []Curve {
	t.Helper()
	fig, err := e.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return fig.Curves
}

func determinismOptions() Options {
	base := hybrid.DefaultConfig()
	base.Warmup = 10
	base.Duration = 40
	base.Seed = 7
	return Options{
		Base:         base,
		RatesPerSite: []float64{1.0, 2.5},
		Replications: 3,
	}
}

// TestSweepDeterministicAcrossParallelism is the determinism regression: the
// same Options through the serial reference path and through the parallel
// runner at Parallelism 1, 4 and 16 must produce bit-identical curves —
// same seeds, same curves, independent of worker count and scheduling order.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	e := sweepOf("none", "queue-length", "min-average/nis")
	want, err := serialSweep(determinismOptions(), e)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 4, 16} {
		opt := determinismOptions()
		opt.Parallelism = parallelism
		if got := runCurves(t, e, opt); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d curves differ from the serial reference", parallelism)
		}
	}
}

// TestFigureDeterministicAcrossParallelism runs a full figure driver at
// several worker counts and asserts bit-identical Figure output.
func TestFigureDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) Figure {
		opt := determinismOptions()
		opt.Replications = 2
		opt.Parallelism = parallelism
		e, _ := Lookup("4.2")
		fig, err := e.Run(opt)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return fig
	}
	want := run(1)
	for _, parallelism := range []int{4, 16} {
		if got := run(parallelism); !reflect.DeepEqual(want, got) {
			t.Fatalf("Figure 4.2 at parallelism %d differs from parallelism 1", parallelism)
		}
	}
}

// TestSingleReplicationMatchesHistoricalPath checks the backward-compatibility
// contract: Replications 1 (and 0) reproduces the historical single-run sweep
// exactly — every run on the unmodified base seed.
func TestSingleReplicationMatchesHistoricalPath(t *testing.T) {
	opt := determinismOptions()
	opt.Replications = 1
	e := sweepOf("none", "queue-length")
	makers, err := parseSpecs(e.Strategies...)
	if err != nil {
		t.Fatal(err)
	}
	curves := runCurves(t, e, opt)
	for mi, mk := range makers {
		for pi, rate := range opt.RatesPerSite {
			// The historical path: one engine, base seed untouched.
			cfg := opt.Base
			cfg.CommDelay = e.CommDelay
			cfg.ArrivalRatePerSite = rate
			strat, err := mk.Make(cfg)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := hybrid.New(cfg, strat)
			if err != nil {
				t.Fatal(err)
			}
			want := engine.Run()
			p := curves[mi].Points[pi]
			if p.Y != want.MeanRT {
				t.Errorf("%s at rate %v: Y = %v, want single-run %v", mk.Label, rate, p.Y, want.MeanRT)
			}
			if !reflect.DeepEqual(p.Result, want) {
				t.Errorf("%s at rate %v: Result differs from the single-run path", mk.Label, rate)
			}
			if p.StdDev != 0 || p.HalfWidth != 0 {
				t.Errorf("%s at rate %v: single replication has dispersion %v/%v", mk.Label, rate, p.StdDev, p.HalfWidth)
			}
		}
	}
}

// TestReplicatedPointAggregation checks each Point's mean/stddev/half-width
// against a direct hand computation over its per-replication results.
func TestReplicatedPointAggregation(t *testing.T) {
	opt := determinismOptions()
	opt.Replications = 4
	for _, p := range runCurves(t, sweepOf("queue-length"), opt)[0].Points {
		if p.Replications != 4 || len(p.Results) != 4 {
			t.Fatalf("point carries %d/%d replications, want 4", p.Replications, len(p.Results))
		}
		n := float64(len(p.Results))
		var sum float64
		for _, r := range p.Results {
			sum += r.MeanRT
		}
		mean := sum / n
		var ss float64
		for _, r := range p.Results {
			d := r.MeanRT - mean
			ss += d * d
		}
		sd := math.Sqrt(ss / (n - 1))
		hw := stats.TQuantile95(len(p.Results)-1) * sd / math.Sqrt(n)
		if math.Abs(p.Y-mean) > 1e-12 {
			t.Errorf("Y = %v, want mean %v", p.Y, mean)
		}
		if math.Abs(p.StdDev-sd) > 1e-9 {
			t.Errorf("StdDev = %v, want %v", p.StdDev, sd)
		}
		if math.Abs(p.HalfWidth-hw) > 1e-9 {
			t.Errorf("HalfWidth = %v, want %v", p.HalfWidth, hw)
		}
		if p.StdDev == 0 {
			t.Error("distinct seeds produced zero dispersion across replications")
		}
		if !reflect.DeepEqual(p.Result, p.Results[0]) {
			t.Error("Result is not the first replication")
		}
	}
}
