package replicate

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/routing"
	"hybriddb/internal/runner"
)

func testConfig() hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Warmup = 20
	cfg.Duration = 60
	cfg.ArrivalRatePerSite = 1.5
	return cfg
}

func makeNone(hybrid.Config) (routing.Strategy, error) { return routing.AlwaysLocal{}, nil }

var none = runner.Maker{Label: "none", Make: makeNone}

func makeBest(cfg hybrid.Config) (routing.Strategy, error) {
	return routing.MinAverage{Params: cfg.ModelParams(), Estimator: routing.FromInSystem}, nil
}

func TestRunAggregates(t *testing.T) {
	s, err := Run(testConfig(), makeNone, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Replications != 5 || len(s.Results) != 5 {
		t.Fatalf("replications = %d, results = %d", s.Replications, len(s.Results))
	}
	if s.Strategy != "none" {
		t.Errorf("strategy = %q", s.Strategy)
	}
	if s.MeanRT.Mean <= 0 {
		t.Errorf("mean RT = %v", s.MeanRT.Mean)
	}
	if s.MeanRT.HalfWidth <= 0 {
		t.Errorf("half width = %v (replications differ, so it must be positive)", s.MeanRT.HalfWidth)
	}
	if s.MeanRT.Min > s.MeanRT.Mean || s.MeanRT.Max < s.MeanRT.Mean {
		t.Errorf("min/mean/max inconsistent: %v %v %v", s.MeanRT.Min, s.MeanRT.Mean, s.MeanRT.Max)
	}
}

// TestPointsSchedule pins the replication schedule: replication i is named
// "replication i" and is cfg seeded cfg.Seed+i, every other field untouched.
func TestPointsSchedule(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 7
	points := Points(cfg, 3)
	if len(points) != 3 {
		t.Fatalf("%d points, want 3", len(points))
	}
	for i, p := range points {
		want := cfg
		want.Seed = 7 + uint64(i)
		if !reflect.DeepEqual(p.Cfg, want) {
			t.Errorf("point %d = %+v, want %+v", i, p.Cfg, want)
		}
		if name := fmt.Sprintf("replication %d", i); p.Name != name {
			t.Errorf("point %d named %q, want %q", i, p.Name, name)
		}
	}
	if n := len(Points(cfg, -1)); n != 0 {
		t.Errorf("Points(cfg, -1) has %d points", n)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	s, err := Run(testConfig(), makeNone, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Results[0].MeanRT == s.Results[1].MeanRT &&
		s.Results[1].MeanRT == s.Results[2].MeanRT {
		t.Fatal("replications produced identical results; seeds not varied")
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	if _, err := Run(testConfig(), makeNone, 0); err == nil {
		t.Error("zero runs accepted")
	}
	if _, err := Run(testConfig(), nil, 3); err == nil {
		t.Error("nil maker accepted")
	}
	bad := testConfig()
	bad.Sites = 0
	if _, err := Run(bad, makeNone, 2); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCompareDetectsClearWinner(t *testing.T) {
	cfg := testConfig()
	cfg.ArrivalRatePerSite = 3.2 // none saturates; best dynamic does not
	better, sa, sb, err := Compare(cfg, makeBest, makeNone, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !better {
		t.Errorf("best dynamic (%v) not significantly better than none (%v) at 32 tps",
			sa.MeanRT, sb.MeanRT)
	}
}

func TestCompareSameStrategyNotSignificant(t *testing.T) {
	better, sa, sb, err := Compare(testConfig(), makeNone, makeNone, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Same strategy, same seeds: identical summaries, never "significant".
	if better {
		t.Errorf("identical strategies flagged significant: %v vs %v", sa.MeanRT, sb.MeanRT)
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Mean: 1.5, HalfWidth: 0.25}
	if got := e.String(); got != "1.5000 ± 0.2500" {
		t.Errorf("String = %q", got)
	}
}

func TestOverlaps(t *testing.T) {
	a := Estimate{Mean: 1.0, HalfWidth: 0.2}
	b := Estimate{Mean: 1.3, HalfWidth: 0.2}
	if !a.Overlaps(b) {
		t.Error("touching intervals should overlap")
	}
	c := Estimate{Mean: 2.0, HalfWidth: 0.1}
	if a.Overlaps(c) {
		t.Error("distant intervals should not overlap")
	}
}

// TestRunParallelMatchesSerial checks that the worker count changes only
// wall-clock time, never the aggregate.
func TestRunParallelMatchesSerial(t *testing.T) {
	best := runner.Maker{Label: "best", Make: makeBest}
	serial, err := RunOpts(Points(testConfig(), 4), best, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parallel, err := RunOpts(Points(testConfig(), 4), best, runner.Options{Parallelism: workers})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("parallelism %d summary differs from serial", workers)
		}
	}
}

// TestRunOptsThreadsProgress checks the progress callback is wired through
// to the pool: one serialized event per replication, counts climbing to the
// total, every label naming the maker and its own replication — and the
// summary identical to a run without the callback (observation only, per
// the RunOpts contract).
func TestRunOptsThreadsProgress(t *testing.T) {
	const runs = 4
	var events []runner.ProgressEvent
	withProgress, err := RunOpts(Points(testConfig(), runs), none, runner.Options{
		Parallelism: 2,
		Progress:    func(ev runner.ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != runs {
		t.Fatalf("%d progress events for %d replications", len(events), runs)
	}
	seen := make(map[string]bool)
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != runs {
			t.Errorf("event %d: Done=%d Total=%d, want %d/%d", i, ev.Done, ev.Total, i+1, runs)
		}
		if !strings.HasPrefix(ev.Label, "none at replication ") {
			t.Errorf("event %d: label %q", i, ev.Label)
		}
		seen[ev.Label] = true
	}
	if len(seen) != runs {
		t.Errorf("labels not distinct: %v", seen)
	}

	plain, err := RunOpts(Points(testConfig(), runs), none, runner.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withProgress, plain) {
		t.Fatal("progress callback changed the summary")
	}
}

// TestRunOptsNilMaker checks a maker without a constructor is an error on
// the RunOpts entry point itself (Run delegates to it), not a panic.
func TestRunOptsNilMaker(t *testing.T) {
	if _, err := RunOpts(Points(testConfig(), 2), runner.Maker{Label: "nil"}, runner.Options{}); err == nil {
		t.Error("nil maker accepted")
	}
}

// TestRunOptsCancelledAggregatesCompleted checks that a cancelled sweep
// still aggregates the replications that finished: Replications reports the
// completed count, Results keeps full length with zero (Window == 0) holes,
// and the context's error comes back with the partial summary.
func TestRunOptsCancelledAggregatesCompleted(t *testing.T) {
	const runs = 16
	ctx, cancel := context.WithCancel(context.Background())
	s, err := RunOpts(Points(testConfig(), runs), none, runner.Options{
		Parallelism: 2,
		Context:     ctx,
		Progress:    func(runner.ProgressEvent) { cancel() },
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Replications == 0 || s.Replications == runs {
		t.Fatalf("Replications = %d, want partial in (0, %d)", s.Replications, runs)
	}
	if len(s.Results) != runs {
		t.Fatalf("Results length %d, want %d", len(s.Results), runs)
	}
	var done int
	for _, r := range s.Results {
		if r.Window > 0 {
			done++
		}
	}
	if done != s.Replications {
		t.Fatalf("Replications %d disagrees with %d completed results", s.Replications, done)
	}
	if s.MeanRT.Mean <= 0 {
		t.Error("partial summary has no aggregated mean RT")
	}
}
