package runner

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/routing"
)

func makeQueueLength(hybrid.Config) (routing.Strategy, error) {
	return routing.QueueLength{}, nil
}

func testCfg(seed uint64) hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Sites = 4
	cfg.Warmup = 5
	cfg.Duration = 20
	cfg.ArrivalRatePerSite = 1.5
	cfg.Seed = seed
	return cfg
}

// TestDeriveSeedDistinct checks that distinct (label, rate, rep) tuples yield
// distinct seeds under one base seed.
func TestDeriveSeedDistinct(t *testing.T) {
	labels := []string{"none", "static*", "queue-length", "min-average/nis", ""}
	seen := make(map[uint64]string)
	for _, label := range labels {
		for rate := 0; rate < 10; rate++ {
			for rep := 0; rep < 10; rep++ {
				s := DeriveSeed(42, label, rate, rep)
				key := fmt.Sprintf("%s/%d/%d", label, rate, rep)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both derive %#x", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

// TestDeriveSeedStable checks the derivation is a pure function of its
// arguments, with pinned values so accidental reformulation (which would
// silently invalidate recorded experiment outputs) fails loudly.
func TestDeriveSeedStable(t *testing.T) {
	for i := 0; i < 3; i++ {
		if a, b := DeriveSeed(1, "x", 2, 3), DeriveSeed(1, "x", 2, 3); a != b {
			t.Fatalf("derivation not stable: %#x vs %#x", a, b)
		}
	}
	if a, b := DeriveSeed(7, "none", 0, 1), DeriveSeed(7, "none", 1, 0); a == b {
		t.Fatal("swapping rate and rep indexes did not change the seed")
	}
}

// TestDeriveSeedBaseChangesEverything checks that changing only the base
// seed changes every derived seed.
func TestDeriveSeedBaseChangesEverything(t *testing.T) {
	for _, label := range []string{"none", "queue-length"} {
		for rate := 0; rate < 8; rate++ {
			for rep := 0; rep < 8; rep++ {
				if DeriveSeed(1, label, rate, rep) == DeriveSeed(2, label, rate, rep) {
					t.Fatalf("base seed change left (%s,%d,%d) unchanged", label, rate, rep)
				}
			}
		}
	}
}

// TestRunSeedReplicationZero checks the backward-compatibility contract: the
// first replication runs on the unmodified base seed.
func TestRunSeedReplicationZero(t *testing.T) {
	if got := RunSeed(99, "anything", 5, 0); got != 99 {
		t.Fatalf("RunSeed rep 0 = %#x, want base 99", got)
	}
	if got := RunSeed(99, "anything", 5, 1); got == 99 {
		t.Fatal("RunSeed rep 1 returned the base seed")
	}
	if RunSeed(99, "a", 0, 1) != DeriveSeed(99, "a", 0, 1) {
		t.Fatal("RunSeed rep >= 1 disagrees with DeriveSeed")
	}
}

// TestSweepIndexesAndSeeds pins the grid contract: cells come back
// [maker][point][rep], cell (m, p, r) ran points[p] on
// RunSeed(points[p].Cfg.Seed, makers[m].Label, p, r) under its own label
// naming maker, point and replication, and measured exactly what the same run
// measures on its own. A replication count below 1 means 1.
func TestSweepIndexesAndSeeds(t *testing.T) {
	points := []Point{{Name: "first", Cfg: testCfg(3)}, {Name: "second", Cfg: testCfg(9)}}
	points[1].Cfg.ArrivalRatePerSite = 1.0
	makers := []Maker{
		{Label: "queue-length", Make: makeQueueLength},
		{Label: "none", Make: func(hybrid.Config) (routing.Strategy, error) { return routing.AlwaysLocal{}, nil }},
	}
	for _, reps := range []int{0, 2} {
		cube, err := Sweep(points, makers, reps, Options{Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		reps = max(reps, 1)
		labels := make(map[string]bool)
		if len(cube) != len(makers) {
			t.Fatalf("%d makers in the cube, want %d", len(cube), len(makers))
		}
		for m, mk := range makers {
			if len(cube[m]) != len(points) {
				t.Fatalf("maker %d: %d points, want %d", m, len(cube[m]), len(points))
			}
			for p, pt := range points {
				if len(cube[m][p]) != reps {
					t.Fatalf("cell (%d,%d): %d reps, want %d", m, p, len(cube[m][p]), reps)
				}
				for r, c := range cube[m][p] {
					want := pt.Cfg
					want.Seed = RunSeed(pt.Cfg.Seed, mk.Label, p, r)
					if !reflect.DeepEqual(c.Cfg, want) {
						t.Errorf("cell (%d,%d,%d) ran seed %d, want %d", m, p, r, c.Cfg.Seed, want.Seed)
					}
					if label := fmt.Sprintf("%s at %s rep %d", mk.Label, pt.Name, r); c.Label != label {
						t.Errorf("cell (%d,%d,%d) label %q, want %q", m, p, r, c.Label, label)
					}
					labels[c.Label] = true
					direct, err := Run([]Task{{Label: "direct", Cfg: want, Make: mk.Make}}, 1)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(c.Result, direct[0]) {
						t.Errorf("cell (%d,%d,%d) differs from the same run made directly", m, p, r)
					}
				}
			}
		}
		if len(labels) != len(makers)*len(points)*reps {
			t.Errorf("%d distinct labels for %d cells", len(labels), len(makers)*len(points)*reps)
		}
	}
}

// TestRunOrderIndependentOfParallelism checks the pool's core guarantee:
// results arrive in task order and are bit-identical for any worker count.
func TestRunOrderIndependentOfParallelism(t *testing.T) {
	var tasks []Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, Task{
			Label: fmt.Sprintf("task %d", i),
			Cfg:   testCfg(uint64(i + 1)),
			Make:  makeQueueLength,
		})
	}
	serial, err := Run(tasks, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		parallel, err := Run(tasks, workers)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("parallelism %d results differ from serial", workers)
		}
	}
}

// TestRunReportsFirstErrorInTaskOrder checks error selection is deterministic
// even when a later-indexed task fails first on the wall clock.
func TestRunReportsFirstErrorInTaskOrder(t *testing.T) {
	fail := func(i int) func(hybrid.Config) (routing.Strategy, error) {
		return func(hybrid.Config) (routing.Strategy, error) {
			return nil, fmt.Errorf("boom %d", i)
		}
	}
	tasks := []Task{
		{Label: "ok", Cfg: testCfg(1), Make: makeQueueLength},
		{Label: "bad 1", Cfg: testCfg(2), Make: fail(1)},
		{Label: "bad 2", Cfg: testCfg(3), Make: fail(2)},
	}
	for _, workers := range []int{1, 4} {
		_, err := Run(tasks, workers)
		if err == nil {
			t.Fatalf("parallelism %d: failing task accepted", workers)
		}
		if want := "runner: bad 1: boom 1"; err.Error() != want {
			t.Fatalf("parallelism %d: err = %v, want first failing task %q", workers, err, want)
		}
	}
}

// TestRunRejectsInvalidConfig checks engine construction errors propagate.
func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := testCfg(1)
	cfg.Duration = -1
	if _, err := Run([]Task{{Label: "bad cfg", Cfg: cfg, Make: makeQueueLength}}, 4); err == nil {
		t.Fatal("invalid configuration accepted")
	}
}

// TestRunNilMaker checks a missing constructor is a task error, not a panic.
func TestRunNilMaker(t *testing.T) {
	if _, err := Run([]Task{{Label: "nil maker", Cfg: testCfg(1)}}, 1); err == nil {
		t.Fatal("nil maker accepted")
	}
}

// TestRunEmpty checks the degenerate fan-out.
func TestRunEmpty(t *testing.T) {
	res, err := Run(nil, 8)
	if err != nil || len(res) != 0 {
		t.Fatalf("Run(nil) = %v, %v", res, err)
	}
}

// TestParallelismResolution checks the GOMAXPROCS default.
func TestParallelismResolution(t *testing.T) {
	if got := Parallelism(3); got != 3 {
		t.Fatalf("Parallelism(3) = %d", got)
	}
	if got := Parallelism(0); got < 1 {
		t.Fatalf("Parallelism(0) = %d", got)
	}
	if Parallelism(-5) != Parallelism(0) {
		t.Fatal("negative parallelism not defaulted")
	}
}

// TestRunOptsProgressCounts: the callback fires exactly once per task with a
// monotonically increasing Done, the right Total, and a task label; ETA is
// positive until the final event.
func TestRunOptsProgressCounts(t *testing.T) {
	const n = 6
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Label: fmt.Sprintf("task %d", i), Cfg: testCfg(uint64(i + 1)), Make: makeQueueLength}
	}
	var events []ProgressEvent
	_, err := RunOpts(tasks, Options{Parallelism: 3, Progress: func(ev ProgressEvent) {
		events = append(events, ev) // callbacks are serialized, no lock needed
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("%d progress events, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != n {
			t.Errorf("event %d: Done=%d Total=%d, want %d/%d", i, ev.Done, ev.Total, i+1, n)
		}
		if ev.Label == "" {
			t.Errorf("event %d has no label", i)
		}
		if i < n-1 && ev.ETA <= 0 {
			t.Errorf("event %d: ETA %v, want > 0 with tasks outstanding", i, ev.ETA)
		}
	}
	if last := events[n-1]; last.ETA != 0 {
		t.Errorf("final event has ETA %v, want 0", last.ETA)
	}
}

// TestRunOptsProgressDoesNotChangeResults: attaching a progress callback is
// observation only.
func TestRunOptsProgressDoesNotChangeResults(t *testing.T) {
	tasks := func() []Task {
		out := make([]Task, 4)
		for i := range out {
			out[i] = Task{Label: fmt.Sprintf("t%d", i), Cfg: testCfg(uint64(i + 10)), Make: makeQueueLength}
		}
		return out
	}
	plain, err := Run(tasks(), 2)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := RunOpts(tasks(), Options{Parallelism: 2, Progress: func(ProgressEvent) {}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("progress callback changed the results")
	}
}

// TestRunOptsCancelledMidPool checks the cancellation contract: no new task
// starts after the context is done, in-flight tasks finish, and the partial
// results come back (full length, completed entries detectable by a
// positive Window) together with the context's error.
func TestRunOptsCancelledMidPool(t *testing.T) {
	const n = 24
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Label: fmt.Sprintf("task %d", i), Cfg: testCfg(uint64(i + 1)), Make: makeQueueLength}
	}
	ctx, cancel := context.WithCancel(context.Background())
	results, err := RunOpts(tasks, Options{
		Parallelism: 2,
		Context:     ctx,
		Progress:    func(ProgressEvent) { cancel() }, // cancel at the first completion
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != n {
		t.Fatalf("partial results length %d, want %d (task order with zero holes)", len(results), n)
	}
	var done int
	for _, r := range results {
		if r.Window > 0 {
			done++
		}
	}
	if done == 0 {
		t.Error("cancellation discarded the completed task")
	}
	if done == n {
		t.Error("cancellation after the first completion still ran every task")
	}
}

// TestRunOptsCancelledBeforeStart checks the serial path refuses to start
// tasks under an already-cancelled context.
func TestRunOptsCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []Task{{Label: "t", Cfg: testCfg(1), Make: makeQueueLength}}
	results, err := RunOpts(tasks, Options{Parallelism: 1, Context: ctx})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 1 || results[0].Window != 0 {
		t.Fatalf("pre-cancelled run still produced a result: %+v", results)
	}
}

// TestTaskWeight pins the slot cost of a task: 1 whenever the engine would
// fall back to the sequential core, the effective shard count otherwise.
func TestTaskWeight(t *testing.T) {
	base := testCfg(1) // Sites = 4, CommDelay > 0, non-ideal feedback
	cases := []struct {
		name   string
		mutate func(*hybrid.Config)
		want   int
	}{
		{"sequential default", func(*hybrid.Config) {}, 1},
		{"sharded", func(c *hybrid.Config) { c.Shards = 3 }, 3},
		{"one shard is sequential", func(c *hybrid.Config) { c.Shards = 1 }, 1},
		{"shards capped at sites+1", func(c *hybrid.Config) { c.Shards = 100 }, 5},
		{"zero comm delay falls back", func(c *hybrid.Config) { c.Shards = 3; c.CommDelay = 0 }, 1},
		{"ideal feedback falls back", func(c *hybrid.Config) { c.Shards = 3; c.Feedback = hybrid.FeedbackIdeal }, 1},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		n, _ := cfg.EffectiveShards()
		if got := TaskWeight(cfg); n != tc.want || got != n {
			t.Errorf("%s: EffectiveShards = %d, TaskWeight = %d, want %d", tc.name, n, got, tc.want)
		}
	}
}

// TestRunWeightedAdmissionBounds checks the co-scheduling invariant: the
// summed weight of in-flight tasks never exceeds the pool size. The counter
// is raised inside Make (after admission) and lowered at the completion
// callback, so the measured peak is a lower bound on the slots actually held
// — it must still stay within the pool.
func TestRunWeightedAdmissionBounds(t *testing.T) {
	const pool = 4
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	weightOf := make(map[string]int64)

	var tasks []Task
	for i := 0; i < 10; i++ {
		cfg := testCfg(uint64(i + 1))
		if i%2 == 0 {
			cfg.Shards = 3 // weight 3; odd tasks weigh 1
		}
		label := fmt.Sprintf("task %d", i)
		mu.Lock()
		weightOf[label] = int64(TaskWeight(cfg))
		mu.Unlock()
		tasks = append(tasks, Task{
			Label: label,
			Cfg:   cfg,
			Make: func(c hybrid.Config) (routing.Strategy, error) {
				now := inFlight.Add(int64(TaskWeight(c)))
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				return routing.QueueLength{}, nil
			},
		})
	}
	_, err := RunOpts(tasks, Options{Parallelism: pool, Progress: func(ev ProgressEvent) {
		mu.Lock()
		w := weightOf[ev.Label]
		mu.Unlock()
		inFlight.Add(-w)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > pool {
		t.Fatalf("in-flight weight peaked at %d, want <= pool size %d", got, pool)
	}
	if left := inFlight.Load(); left != 0 {
		t.Fatalf("in-flight weight %d after the pool drained, want 0", left)
	}
}

// TestRunTaskHeavierThanPool checks a task weighing more than the whole pool
// is clamped and still runs rather than deadlocking admission.
func TestRunTaskHeavierThanPool(t *testing.T) {
	cfg := testCfg(1)
	cfg.Shards = 5 // weight 5 against a pool of 2
	tasks := []Task{
		{Label: "heavy", Cfg: cfg, Make: makeQueueLength},
		{Label: "light", Cfg: testCfg(2), Make: makeQueueLength},
	}
	results, err := RunOpts(tasks, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Window <= 0 {
			t.Errorf("task %d did not run", i)
		}
	}
}

// TestRunShardedMatchesSequentialEngine checks the weighted pool preserves
// the engine-level bit-exactness contract: a sharded task returns the same
// result as the identical config run sequentially, whether admitted alone or
// co-scheduled with other work.
func TestRunShardedMatchesSequentialEngine(t *testing.T) {
	seqCfg := testCfg(7)
	shCfg := seqCfg
	shCfg.Shards = 3
	tasks := []Task{
		{Label: "sequential", Cfg: seqCfg, Make: makeQueueLength},
		{Label: "sharded", Cfg: shCfg, Make: makeQueueLength},
		{Label: "filler", Cfg: testCfg(8), Make: makeQueueLength},
	}
	for _, pool := range []int{1, 4} {
		results, err := Run(tasks, pool)
		if err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("pool %d: sharded result differs from sequential result", pool)
		}
	}
}

// TestRunOptsNilContextUnchanged pins that omitting the context keeps the
// historical contract: everything runs, no error.
func TestRunOptsNilContextUnchanged(t *testing.T) {
	tasks := []Task{
		{Label: "a", Cfg: testCfg(1), Make: makeQueueLength},
		{Label: "b", Cfg: testCfg(2), Make: makeQueueLength},
	}
	results, err := RunOpts(tasks, Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("RunOpts: %v", err)
	}
	for i, r := range results {
		if r.Window <= 0 {
			t.Errorf("task %d did not run", i)
		}
	}
}
