package hybrid

import (
	"fmt"
	"os"
	"testing"

	"hybriddb/internal/routing"
)

// benchConfig is a short but non-trivial run: contended enough that the
// lifecycle exercises lock waits, authentication, and cross-site aborts.
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 17
	cfg.Warmup = 5
	cfg.Duration = 30
	cfg.ArrivalRatePerSite = 2.0
	return cfg
}

func benchRun(b *testing.B, wire func(*Engine)) {
	b.Helper()
	cfg := benchConfig()
	var completed uint64
	for i := 0; i < b.N; i++ {
		e, err := New(cfg, routing.NewStatic(0.5, 7))
		if err != nil {
			b.Fatal(err)
		}
		if wire != nil {
			wire(e)
		}
		r := e.Run()
		completed += r.Completed
	}
	if completed == 0 {
		b.Fatal("benchmark completed no transactions")
	}
}

// BenchmarkEngineObserversOff measures the hot loop with no optional
// instrumentation attached: no tracer, no self-check. This is the
// nil-observer fast path — protocol-detail events are never materialized.
func BenchmarkEngineObserversOff(b *testing.B) {
	benchRun(b, nil)
}

// BenchmarkEngineMetricsAndTracerOn measures the same run with a tracing
// observer subscribed, so every protocol-detail event (lock requests,
// grants, authentication messages, ...) is constructed and delivered.
func BenchmarkEngineMetricsAndTracerOn(b *testing.B) {
	benchRun(b, func(e *Engine) { e.Subscribe(&detailCount{}) })
}

// BenchmarkEngineSelfCheckOn measures the run with periodic invariant
// checking enabled on top of metrics.
func BenchmarkEngineSelfCheckOn(b *testing.B) {
	cfg := benchConfig()
	cfg.SelfCheck = true
	var completed uint64
	for i := 0; i < b.N; i++ {
		e, err := New(cfg, routing.NewStatic(0.5, 7))
		if err != nil {
			b.Fatal(err)
		}
		completed += e.Run().Completed
	}
	if completed == 0 {
		b.Fatal("benchmark completed no transactions")
	}
}

// benchShardRun times a full engine run at the given shard count (0 =
// sequential). Sites and duration scale up from benchConfig so the parallel
// rounds have enough work per window to amortize the barrier; HEAVY_BENCH=1
// switches to the big variant (64 sites, 500 simulated seconds) used for the
// recorded BENCH numbers.
func benchShardRun(b *testing.B, shards int) {
	b.Helper()
	cfg := benchConfig()
	cfg.Sites = 16
	cfg.Duration = 60
	if os.Getenv("HEAVY_BENCH") != "" {
		cfg.Sites = 64
		cfg.Warmup = 50
		cfg.Duration = 500
	}
	cfg.Shards = shards
	var completed uint64
	for i := 0; i < b.N; i++ {
		e, err := New(cfg, routing.NewStatic(0.5, 7))
		if err != nil {
			b.Fatal(err)
		}
		completed += e.Run().Completed
		if shards > 1 && !e.Parallel() {
			b.Fatal("parallel mode did not engage")
		}
	}
	if completed == 0 {
		b.Fatal("benchmark completed no transactions")
	}
	b.ReportMetric(float64(completed)/float64(b.N), "txns/run")
}

// BenchmarkEngineSequential is the single-queue baseline for the sharded
// comparison below — same configuration, Shards = 0.
func BenchmarkEngineSequential(b *testing.B) { benchShardRun(b, 0) }

// BenchmarkEngineSharded runs the identical workload through the
// conservative parallel core. The two benchmarks produce bit-identical
// Results (see TestParallelBitExact); the ratio of their ns/op is the
// speedup — or, on a single-core host, the synchronization overhead.
func BenchmarkEngineSharded(b *testing.B) {
	for _, shards := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			benchShardRun(b, shards)
		})
	}
}

// BenchmarkEngineSkewed times the skewed partial-replication workload
// against the uniform full-replication baseline on an otherwise identical
// configuration: Zipf reference sampling at each site, the cold-element test
// on every central-path call, the fetch-delay events it schedules, and
// epoch-batched propagation. The uniform sub-benchmark pins the cost of the
// defaults (the Zipf sampler and cold test must cost nothing when off); the
// skewed one prices the PR-10 feature set end to end.
func BenchmarkEngineSkewed(b *testing.B) {
	variants := []struct {
		name string
		wire func(*Config)
	}{
		{"uniform", func(cfg *Config) {}},
		{"skewed", func(cfg *Config) {
			cfg.SkewTheta = 0.8
			cfg.CentralHotFraction = 0.5
			cfg.ColdFetchDelay = 0.0137
			cfg.EpochLength = 0.25
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Sites = 16
			cfg.Duration = 60
			v.wire(&cfg)
			var completed uint64
			for i := 0; i < b.N; i++ {
				e, err := New(cfg, routing.NewStatic(0.5, 7))
				if err != nil {
					b.Fatal(err)
				}
				completed += e.Run().Completed
			}
			if completed == 0 {
				b.Fatal("benchmark completed no transactions")
			}
			b.ReportMetric(float64(completed)/float64(b.N), "txns/run")
		})
	}
}

// scale1000Config is the cmd/hybridsim scale1000 preset at benchmark length:
// the §4.1 system scaled 100x (1000 sites, central CPU and lockspace grown in
// proportion) with a short horizon so one iteration stays in benchmark range.
// HEAVY_BENCH=1 lengthens the horizon for the recorded BENCH numbers.
func scale1000Config() Config {
	cfg := benchConfig()
	cfg.Sites = 1000
	cfg.ArrivalRatePerSite = 1.0
	cfg.CentralMIPS = 1500
	cfg.Lockspace = 3_276_800
	cfg.Warmup = 2
	cfg.Duration = 10
	if os.Getenv("HEAVY_BENCH") != "" {
		cfg.Warmup = 10
		cfg.Duration = 100
	}
	return cfg
}

func benchScale1000(b *testing.B, shards int) {
	b.Helper()
	cfg := scale1000Config()
	cfg.Shards = shards
	var completed uint64
	for i := 0; i < b.N; i++ {
		e, err := New(cfg, routing.NewStatic(0.5, 7))
		if err != nil {
			b.Fatal(err)
		}
		completed += e.Run().Completed
		if shards > 1 && !e.Parallel() {
			b.Fatal("parallel mode did not engage")
		}
	}
	if completed == 0 {
		b.Fatal("benchmark completed no transactions")
	}
	b.ReportMetric(float64(completed)/float64(b.N), "txns/run")
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "txns/s")
}

// BenchmarkEngineSequential1000 is the 1000-site single-queue baseline: the
// shard-count-decoupled mapping's whole point is that this scale runs on a
// handful of shards, so the pair below is the headline scale-out number.
func BenchmarkEngineSequential1000(b *testing.B) { benchScale1000(b, 0) }

// BenchmarkEngineSharded1000 runs the 1000-site workload on the parallel
// core with contiguous-block site placement — shard counts sized to cores,
// not sites. Results are bit-identical to the sequential baseline.
func BenchmarkEngineSharded1000(b *testing.B) {
	for _, shards := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			benchScale1000(b, shards)
		})
	}
}
