package metrics

import (
	"strings"
	"sync"
	"testing"

	"hybriddb/internal/stats"
)

// TestPrometheusGolden pins the text exposition byte for byte: family and
// series ordering, label rendering, histogram cumulative buckets with
// underflow folded in and overflow only in +Inf.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wire_msgs_in_total", "inbound frames by type", L("type", "ship"))
	c.Add(7)
	r.Counter("wire_msgs_in_total", "inbound frames by type", L("type", "hello")).Inc()
	g := r.Gauge("central_queue_depth", "bursts queued at the central CPU")
	g.Set(3.5)
	r.GaugeFunc("up", "always one", func() float64 { return 1 })
	h, sum := stats.NewHistogram(0, 1, 4), 0.0
	for _, x := range []float64{-0.5 /* underflow */, 0.1, 0.3, 0.9, 2.0 /* overflow */} {
		h.Add(x)
		sum += x
	}
	r.Histogram("rt_seconds", "response time", L("route", "local")).Set(h.Dump(), sum)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP central_queue_depth bursts queued at the central CPU
# TYPE central_queue_depth gauge
central_queue_depth 3.5
# HELP rt_seconds response time
# TYPE rt_seconds histogram
rt_seconds_bucket{route="local",le="0.25"} 2
rt_seconds_bucket{route="local",le="0.5"} 3
rt_seconds_bucket{route="local",le="0.75"} 3
rt_seconds_bucket{route="local",le="1"} 4
rt_seconds_bucket{route="local",le="+Inf"} 5
rt_seconds_sum{route="local"} 2.8
rt_seconds_count{route="local"} 5
# HELP up always one
# TYPE up gauge
up 1
# HELP wire_msgs_in_total inbound frames by type
# TYPE wire_msgs_in_total counter
wire_msgs_in_total{type="hello"} 1
wire_msgs_in_total{type="ship"} 7
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}

	// The parser inverts the exposition for scalar series and histogram
	// component samples.
	parsed, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	for name, want := range map[string]float64{
		"central_queue_depth":                        3.5,
		`wire_msgs_in_total{type="ship"}`:            7,
		`rt_seconds_count{route="local"}`:            5,
		`rt_seconds_bucket{route="local",le="+Inf"}`: 5,
	} {
		if got := parsed[name]; got != want {
			t.Errorf("parsed[%s] = %v, want %v", name, got, want)
		}
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines under
// the race detector: registration is idempotent and handle updates are
// atomic.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("ops_total", "ops", L("kind", "x"))
			g := r.Gauge("depth", "depth")
			h := r.Histogram("lat", "latency")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Set(stats.HistogramDump{Lo: 0, Hi: 1, Width: 0.1, Count: uint64(i)}, float64(i))
				if i%1000 == 0 {
					var sink strings.Builder
					if err := r.WritePrometheus(&sink); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops_total", "ops", L("kind", "x")).Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	// Every worker's last Set wrote the same value.
	if got := r.Gauge("depth", "depth").Value(); got != perWorker-1 {
		t.Errorf("gauge = %v, want %d", got, perWorker-1)
	}
	if d, sum := r.Histogram("lat", "latency").get(); d.Count != perWorker-1 || sum != perWorker-1 {
		t.Errorf("histogram count, sum = %d, %v; want %d", d.Count, sum, perWorker-1)
	}
}

// TestScrapeHooks pins that hooks run before every exposition and can
// mirror external state into gauges.
func TestScrapeHooks(t *testing.T) {
	r := NewRegistry()
	depth := 0
	g := r.Gauge("mirrored_depth", "loop-confined depth mirrored at scrape")
	r.OnScrape(func() { g.Set(float64(depth)) })
	depth = 17
	snap := r.Snapshot()
	if snap["mirrored_depth"] != 17 {
		t.Errorf("snapshot saw %v, want 17", snap["mirrored_depth"])
	}
	depth = 23
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mirrored_depth 23") {
		t.Errorf("exposition did not re-run the hook:\n%s", b.String())
	}
}

// TestSnapshotShape pins the scalar snapshot embedded in manifests:
// histograms contribute _count/_sum/_p50/_p95, summaries _count/_sum.
func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	h := stats.NewHistogram(0, 10, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) / 10)
	}
	r.Histogram("rt_seconds", "", L("route", "shipped")).Set(h.Dump(), 495)
	r.Summary("wait_seconds", "").Set(stats.HistogramDump{Count: 4}, 2)
	snap := r.Snapshot()
	for k, want := range map[string]float64{
		`rt_seconds_count{route="shipped"}`: 100,
		`rt_seconds_sum{route="shipped"}`:   495,
		`rt_seconds_p50{route="shipped"}`:   h.Quantile(0.50),
		`rt_seconds_p95{route="shipped"}`:   h.Quantile(0.95),
		"wait_seconds_count":                4,
		"wait_seconds_sum":                  2,
	} {
		if got, ok := snap[k]; !ok || got != want {
			t.Errorf("snapshot %s = %v (present %v), want %v", k, got, ok, want)
		}
	}
	if len(snap) != 6 {
		t.Errorf("snapshot has %d entries, want 6: %v", len(snap), snap)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE wait_seconds summary\nwait_seconds_sum 2\nwait_seconds_count 4\n"; !strings.HasSuffix(b.String(), want) {
		t.Errorf("summary exposition:\n%s\nwant suffix:\n%s", b.String(), want)
	}
}

// TestKindMismatchPanics pins the registration error paths.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering a counter as a gauge did not panic")
			}
		}()
		r.Gauge("x_total", "")
	}()
	r.Histogram("h", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering a histogram as a summary did not panic")
			}
		}()
		r.Summary("h", "")
	}()
}
