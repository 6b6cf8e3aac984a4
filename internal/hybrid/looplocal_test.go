package hybrid

import (
	"reflect"
	"testing"

	"hybriddb/internal/model"
	"hybriddb/internal/routing"
)

// recordingMinAverage is min-average/nis with its ForLoop calls recorded, so
// a test can count the instances a run asked for and read their memo stats.
// The recorder is unsynchronized on purpose: the engine must fork from its
// single-goroutine set-up, and -race reports it if it ever does not.
type recordingMinAverage struct {
	routing.MinAverage
	loops *[]routing.Strategy
}

func newRecordingMinAverage(cfg Config) recordingMinAverage {
	return recordingMinAverage{
		MinAverage: routing.MinAverage{Params: cfg.ModelParams(), Estimator: routing.FromInSystem},
		loops:      new([]routing.Strategy),
	}
}

func (r recordingMinAverage) ForLoop() routing.Strategy {
	s := r.MinAverage.ForLoop()
	*r.loops = append(*r.loops, s)
	return s
}

func (r recordingMinAverage) stats(t *testing.T) (total model.MemoStats) {
	t.Helper()
	for _, s := range *r.loops {
		ms := s.(interface{ Stats() model.MemoStats }).Stats()
		total.Hits += ms.Hits
		total.Misses += ms.Misses
		total.Entries += ms.Entries
	}
	return total
}

// TestLoopLocalOnePerEventLoop runs min-average/nis sequentially and sharded:
// the Results must be equal (the memo must not leak into a decision, and
// per-loop counts must not leak into the Result), a sequential run must ask
// for one loop-local instance, a sharded run for one per worker shard, and
// construction for none. Under -race it also shows the instances are not
// shared between workers.
func TestLoopLocalOnePerEventLoop(t *testing.T) {
	cfg := goldenConfig()
	cfg.CaptureHistograms = true

	seqStrat := newRecordingMinAverage(cfg)
	e, err := New(cfg, seqStrat)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(*seqStrat.loops); n != 0 {
		t.Fatalf("New asked for %d loop-local instances; they belong to Run", n)
	}
	seq := e.Run()
	if n := len(*seqStrat.loops); n != 1 {
		t.Errorf("sequential run asked for %d loop-local instances, want 1", n)
	}
	if ms := seqStrat.stats(t); ms.Hits == 0 {
		t.Errorf("sequential run never hit its memo: %+v", ms)
	}

	// The same run on the plain value's arithmetic alone: a strategy that
	// hides ForLoop from the engine.
	plain := run(t, cfg, struct{ routing.Strategy }{seqStrat.MinAverage})
	if !reflect.DeepEqual(seq, plain) {
		t.Errorf("loop-local run diverged from the plain value's\nloop:  %+v\nplain: %+v", seq, plain)
	}

	for _, shards := range []int{2, 4, cfg.Sites + 1} {
		cfg.Shards = shards
		parStrat := newRecordingMinAverage(cfg)
		ep, err := New(cfg, parStrat)
		if err != nil {
			t.Fatal(err)
		}
		par := ep.Run()
		if !ep.Parallel() {
			t.Fatalf("shards=%d: parallel mode did not engage", shards)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("shards=%d: sharded min-average run diverged from sequential\nseq: %+v\npar: %+v", shards, seq, par)
		}
		if n := len(*parStrat.loops); n != shards-1 {
			t.Errorf("shards=%d: run asked for %d loop-local instances, want one per worker shard (%d)", shards, n, shards-1)
		}
		for i, s := range *parStrat.loops {
			if ms := s.(interface{ Stats() model.MemoStats }).Stats(); ms.Hits+ms.Misses == 0 {
				t.Errorf("shards=%d: instance %d decided nothing", shards, i)
			}
		}
	}
}

// TestLoopLocalHitRateFloor pins the memo's reason to exist: on the sim-paper
// benchmark configuration (3,400 simulated seconds, ~90,000 transactions) a
// run finds at least 95% of its integrals in the table (0.983 measured). A
// change to the key, the table or the estimate's argument arithmetic that
// silently costs hits fails here.
func TestLoopLocalHitRateFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 4
	cfg.ArrivalRatePerSite = 2.5
	cfg.Warmup = 200
	cfg.Duration = 3400
	strat := newRecordingMinAverage(cfg)
	res := run(t, cfg, strat)
	ms := strat.stats(t)
	t.Logf("%d completed, %d integrals, %d distinct, hit rate %.4f", res.Completed, ms.Hits+ms.Misses, ms.Entries, ms.HitRate())
	if ms.HitRate() < 0.95 {
		t.Errorf("hit rate %.4f < 0.95 (%+v)", ms.HitRate(), ms)
	}
	if uint64(ms.Entries) != ms.Misses {
		t.Errorf("%d entries for %d misses: the table dropped or duplicated keys below its cap", ms.Entries, ms.Misses)
	}
}
