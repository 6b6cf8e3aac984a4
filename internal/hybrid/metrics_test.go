package hybrid

import (
	"math"
	"testing"

	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/routing"
)

// siteCore and coordCore pick the partition cores the unit tests poke at
// (single-site metrics: core 0 = the site, last core = the coordinator).
func siteCore(m *metrics) *metricsCore  { return &m.cores[0] }
func coordCore(m *metrics) *metricsCore { return &m.cores[len(m.cores)-1] }

// TestSeriesBucketBoundaries pins the bucket grid: a completion at exactly
// the window start lands in bucket 0, one an epsilon before a boundary stays
// in the earlier bucket, one exactly on a boundary opens the next, skipped
// buckets materialize as zero-count entries, and one at exactly the horizon
// folds into the last bucket instead of opening one past the window.
func TestSeriesBucketBoundaries(t *testing.T) {
	m := newMetrics(10, 50, 1)
	m.OnEvent(obs.Event{Kind: obs.MeasureStart, At: 100})

	commit := func(at, rt float64) {
		m.OnEvent(obs.Event{Kind: obs.TxnLocalCommit, At: at, Value: rt, Site: 0})
	}
	commit(100, 1.0)     // bucket 0, inclusive lower edge
	commit(109.999, 2.0) // still bucket 0
	commit(110, 3.0)     // bucket 1, boundary opens the next bucket
	commit(135, 4.0)     // bucket 3; bucket 2 stays empty
	commit(150, 5.0)     // the horizon: last bucket, 4

	wantCounts := []uint64{2, 1, 0, 1, 1}
	if len(siteCore(m).seriesCount) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d", len(siteCore(m).seriesCount), len(wantCounts))
	}
	for i, want := range wantCounts {
		if siteCore(m).seriesCount[i] != want {
			t.Errorf("bucket %d count = %d, want %d", i, siteCore(m).seriesCount[i], want)
		}
	}
	if got := siteCore(m).seriesSum[0]; got != 3.0 {
		t.Errorf("bucket 0 sum = %v, want 3.0", got)
	}
	if got := siteCore(m).seriesSum[3]; got != 4.0 {
		t.Errorf("bucket 3 sum = %v, want 4.0", got)
	}
}

// TestSeriesDisabledRecordsNothing: SeriesBucket = 0 must leave every series
// slice nil, whatever arrives.
func TestSeriesDisabledRecordsNothing(t *testing.T) {
	m := newMetrics(0, 50, 1)
	m.OnEvent(obs.Event{Kind: obs.MeasureStart, At: 0})
	m.OnEvent(obs.Event{Kind: obs.TxnLocalCommit, At: 5, Value: 1, Site: 0})
	m.OnEvent(obs.Event{Kind: obs.QueueSample, At: 5, Value: 2, Aux: 1})
	if siteCore(m).seriesCount != nil || coordCore(m).seriesQCount != nil {
		t.Fatalf("series recorded with bucket 0: rt=%v queue=%v", siteCore(m).seriesCount, coordCore(m).seriesQCount)
	}
}

// TestQueueSampleFolding: queue observations fold into the same bucket grid
// as response times, accumulating separate central and local sums.
func TestQueueSampleFolding(t *testing.T) {
	m := newMetrics(10, 50, 1)
	m.OnEvent(obs.Event{Kind: obs.MeasureStart, At: 100})

	sample := func(at, central, local float64) {
		m.OnEvent(obs.Event{Kind: obs.QueueSample, At: at, Value: central, Aux: local})
	}
	sample(101, 4, 1)
	sample(102, 6, 2) // same bucket: sums 10 and 3 over 2 samples
	sample(125, 8, 3) // bucket 2; bucket 1 empty

	if got := len(coordCore(m).seriesQCount); got != 3 {
		t.Fatalf("got %d queue buckets, want 3", got)
	}
	if coordCore(m).seriesQCount[0] != 2 || coordCore(m).seriesQSumC[0] != 10 || coordCore(m).seriesQSumL[0] != 3 {
		t.Errorf("bucket 0 = %d samples, sums C=%v L=%v; want 2, 10, 3",
			coordCore(m).seriesQCount[0], coordCore(m).seriesQSumC[0], coordCore(m).seriesQSumL[0])
	}
	if coordCore(m).seriesQCount[1] != 0 {
		t.Errorf("bucket 1 has %d samples, want 0", coordCore(m).seriesQCount[1])
	}
	if coordCore(m).seriesQCount[2] != 1 || coordCore(m).seriesQSumC[2] != 8 {
		t.Errorf("bucket 2 = %d samples, sum C=%v; want 1, 8", coordCore(m).seriesQCount[2], coordCore(m).seriesQSumC[2])
	}
}

// TestSeriesIgnoresPreWindowEvents: before MeasureStart nothing is enabled,
// and an event carrying a pre-window timestamp after enablement maps to no
// bucket rather than a negative index.
func TestSeriesIgnoresPreWindowEvents(t *testing.T) {
	m := newMetrics(10, 50, 1)
	m.OnEvent(obs.Event{Kind: obs.TxnLocalCommit, At: 50, Value: 1, Site: 0})
	m.OnEvent(obs.Event{Kind: obs.MeasureStart, At: 100})
	m.OnEvent(obs.Event{Kind: obs.QueueSample, At: 99.5, Value: 1, Aux: 1})
	if siteCore(m).seriesCount != nil || coordCore(m).seriesQCount != nil {
		t.Fatal("pre-window events reached the series")
	}
	if siteCore(m).w[obs.RTAll].Count() != 0 {
		t.Fatal("pre-window commit was measured")
	}
}

// TestResultSeriesEndToEnd runs a real simulation with SeriesBucket set and
// checks the assembled RTSeries: exactly ceil(Duration/SeriesBucket)
// contiguous buckets on the grid, completions and queue samples both folded,
// and means derived from the folded sums.
func TestResultSeriesEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.SeriesBucket = 25
	r := run(t, cfg, routing.QueueLength{})

	if want := int(math.Ceil(cfg.Duration / cfg.SeriesBucket)); len(r.RTSeries) != want {
		t.Fatalf("RTSeries has %d buckets, want %d", len(r.RTSeries), want)
	}
	var completions, qsamples uint64
	for i, b := range r.RTSeries {
		if want := float64(i) * cfg.SeriesBucket; b.Start != want {
			t.Fatalf("bucket %d starts at %v, want %v", i, b.Start, want)
		}
		completions += b.Completions
		qsamples += b.QueueSamples
		if b.Completions == 0 && b.MeanRT != 0 {
			t.Errorf("empty bucket %d has MeanRT %v", i, b.MeanRT)
		}
		if b.QueueSamples == 0 && (b.MeanCentralQueue != 0 || b.MeanLocalQueue != 0) {
			t.Errorf("bucket %d has queue means without samples", i)
		}
	}
	if total := r.CompletedLocalA + r.CompletedShippedA + r.CompletedClassB; completions != total {
		t.Errorf("series holds %d completions, result has %d", completions, total)
	}
	// The engine samples queues at 1 Hz over the window, so a 150 s run folds
	// about 150 samples into the series.
	if qsamples == 0 {
		t.Error("no queue samples folded into the series")
	}
}

// TestResultCountsMatchBus: the Result's event counts are the bus's. An
// external observer tallies the lifecycle events emitted after MeasureStart
// on a skewed, 50 %-exclusive, partial-replication run; every abort cause,
// the authentication rounds, the cold fetches and both halves of the ship
// fraction must equal what the Result reports.
func TestResultCountsMatchBus(t *testing.T) {
	cfg := goldenConfig()
	cfg.SkewTheta = 0.8
	cfg.PWrite = 0.5
	cfg.CentralHotFraction = 0.5
	cfg.ColdFetchDelay = 0.0137
	e, err := New(cfg, routing.QueueLength{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		measuring     bool
		n             [obs.TraceDetail + 1]uint64
		classA, shipA uint64
	)
	e.Subscribe(obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.MeasureStart {
			measuring = true
		}
		if !measuring {
			return
		}
		n[ev.Kind]++
		if ev.Kind == obs.TxnArrive && !ev.ClassB {
			classA++
			if ev.Shipped {
				shipA++
			}
		}
	}))
	r := e.Run()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"AbortsDeadlockLocal", r.AbortsDeadlockLocal, n[obs.AbortDeadlockLocal]},
		{"AbortsDeadlockCentral", r.AbortsDeadlockCentral, n[obs.AbortDeadlockCentral]},
		{"AbortsLocalSeized", r.AbortsLocalSeized, n[obs.AbortLocalSeized]},
		{"AbortsCentralNACK", r.AbortsCentralNACK, n[obs.AbortCentralNACK]},
		{"AbortsCentralInval", r.AbortsCentralInval, n[obs.AbortCentralInval]},
		{"AuthRounds", r.AuthRounds, n[obs.AuthRound]},
		{"ColdFetches", r.ColdFetches, n[obs.ColdFetch]},
	} {
		if c.got != c.want {
			t.Errorf("Result.%s = %d, the bus carried %d", c.name, c.got, c.want)
		}
		if c.want == 0 {
			t.Errorf("no %s on the bus: the check is vacuous", c.name)
		}
	}
	if want := float64(shipA) / float64(classA); r.ShipFraction != want {
		t.Errorf("ShipFraction = %v, the bus carried %d shipped of %d class A decisions (%v)", r.ShipFraction, shipA, classA, want)
	}
	if shipA == 0 || shipA == classA {
		t.Errorf("%d of %d class A shipped: the ship fraction check is vacuous", shipA, classA)
	}
}

// TestCaptureHistograms: the dumps are attached only on request, and
// recomputing a quantile from the dumped buckets reproduces the result's own
// percentile field — the property run manifests rely on.
func TestCaptureHistograms(t *testing.T) {
	cfg := testConfig()
	r := run(t, cfg, routing.QueueLength{})
	if r.Histograms != nil {
		t.Fatal("histogram dumps attached without CaptureHistograms")
	}

	cfg.CaptureHistograms = true
	r = run(t, cfg, routing.QueueLength{})
	if r.Histograms == nil {
		t.Fatal("no histogram dumps with CaptureHistograms set")
	}
	h := r.Histograms.All
	if total := r.CompletedLocalA + r.CompletedShippedA + r.CompletedClassB; h.Count != total {
		t.Errorf("dump count %d, completions %d", h.Count, total)
	}
	if got, want := h.Quantile(0.95), r.P95RT; got != want {
		t.Errorf("dump quantile(0.95) = %v, result P95RT = %v", got, want)
	}
	if got, want := h.Quantile(0.50), r.RTPercentiles.P50; got != want {
		t.Errorf("dump quantile(0.50) = %v, RTPercentiles.P50 = %v", got, want)
	}
	if r.ClipAll.Under != h.Under || r.ClipAll.Over != h.Over {
		t.Errorf("ClipAll %+v disagrees with dump under/over %d/%d", r.ClipAll, h.Under, h.Over)
	}
}
