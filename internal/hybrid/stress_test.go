package hybrid

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"hybriddb/internal/routing"
	"hybriddb/internal/trace"
)

// TestQuickProtocolStress drives short self-checked simulations across a
// randomized configuration space — site counts, contention levels, write
// mixes, delays, batching, disks, feedback modes, and strategies — asserting
// the engine's internal invariants (lock-table consistency, transaction
// conservation, coherence counts) hold everywhere, not just at the paper's
// operating point.
func TestQuickProtocolStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress in -short mode")
	}
	strategies := func(cfg Config) []routing.Strategy {
		p := cfg.ModelParams()
		return []routing.Strategy{
			routing.AlwaysLocal{},
			routing.NewStatic(0.5, cfg.Seed),
			routing.MeasuredRT{},
			routing.QueueLength{},
			routing.QueueThreshold{Theta: -0.2},
			routing.MinIncoming{Params: p, Estimator: routing.FromInSystem},
			routing.MinAverage{Params: p, Estimator: routing.FromQueueLength},
		}
	}
	f := func(seed uint32, knobs [8]uint8) bool {
		cfg := DefaultConfig()
		cfg.Seed = uint64(seed)
		cfg.Warmup = 5
		cfg.Duration = 25
		cfg.SelfCheck = true
		cfg.Sites = int(knobs[0]%5) + 1
		cfg.ArrivalRatePerSite = 0.3 + float64(knobs[1]%30)/10 // 0.3 .. 3.2
		cfg.PWrite = float64(knobs[2]%10) / 10
		cfg.PLocal = 0.3 + float64(knobs[3]%8)/10 // 0.3 .. 1.0
		cfg.Lockspace = 500 + uint32(knobs[4])*100
		cfg.CommDelay = float64(knobs[5]%6) / 10 // 0 .. 0.5
		if knobs[6]%3 == 1 {
			cfg.UpdateBatchWindow = 0.3
		}
		if knobs[6]%3 == 2 {
			cfg.DisksPerSite = 2
			cfg.DisksCentral = 4
		}
		cfg.Feedback = []Feedback{FeedbackAuthOnly, FeedbackAllMessages, FeedbackIdeal}[knobs[7]%3]
		if cfg.PLocal > 1 {
			cfg.PLocal = 1
		}

		all := strategies(cfg)
		strat := all[int(knobs[7]/3)%len(all)]

		engine, err := New(cfg, strat)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		counter := &detailCount{}
		engine.Subscribe(counter)
		r := engine.Run() // SelfCheck panics on any invariant violation
		if r.Completed > r.Generated {
			return false
		}
		// Every arrival must be traced.
		return counter[trace.Arrive] == r.Generated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentEngines spins many engines with distinct seeds in concurrent
// goroutines and checks each produces exactly the result it produces when run
// alone — engines must share no mutable state, the property the parallel
// experiment runner rests on. Run under `go test -race` this also has the
// race detector audit every cross-engine access.
func TestConcurrentEngines(t *testing.T) {
	const engines = 8
	cfg := DefaultConfig()
	cfg.Sites = 5
	cfg.Warmup = 10
	cfg.Duration = 60
	cfg.ArrivalRatePerSite = 2.0
	cfg.SelfCheck = true

	strategies := func(c Config) []routing.Strategy {
		p := c.ModelParams()
		return []routing.Strategy{
			routing.AlwaysLocal{},
			routing.NewStatic(0.4, c.Seed),
			routing.QueueLength{},
			routing.MinAverage{Params: p, Estimator: routing.FromInSystem},
		}
	}

	// Reference: each configuration run alone, serially.
	serial := make([]Result, engines)
	for i := range serial {
		c := cfg
		c.Seed = uint64(i + 1)
		engine, err := New(c, strategies(c)[i%4])
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = engine.Run()
	}

	// The same configurations, all engines running concurrently.
	concurrent := make([]Result, engines)
	errs := make([]error, engines)
	var wg sync.WaitGroup
	wg.Add(engines)
	for i := 0; i < engines; i++ {
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Seed = uint64(i + 1)
			engine, err := New(c, strategies(c)[i%4])
			if err != nil {
				errs[i] = err
				return
			}
			concurrent[i] = engine.Run()
		}(i)
	}
	wg.Wait()

	for i := 0; i < engines; i++ {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Errorf("engine %d: concurrent result differs from solo run — engines share state", i)
		}
	}
	// Distinct seeds must actually explore distinct sample paths.
	if reflect.DeepEqual(concurrent[0].Generated, concurrent[4].Generated) &&
		concurrent[0].MeanRT == concurrent[4].MeanRT {
		t.Error("engines with distinct seeds produced identical results")
	}
}
