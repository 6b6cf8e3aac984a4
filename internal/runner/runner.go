// Package runner executes independent simulation runs across a bounded
// worker pool, and Sweep is the one grid every experiment is written in:
// configuration points × strategies × replications. Sequential engines share
// no mutable state, so independent runs parallelize perfectly; sharded
// engines (Config.Shards > 1) bring their own internal worker goroutines, so
// the pool co-schedules them by weight — a task occupies as many pool slots
// as the threads it will actually run — keeping a replication sweep of
// sharded runs from oversubscribing the host. Results stay bit-identical to
// a serial execution for any pool size: they are stored by task index and
// every run's RNG seed is a pure function of (base seed, strategy label,
// point index, replication index), never of worker identity or scheduling
// order.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/routing"
)

// Maker names a routing strategy and builds a fresh instance of it for each
// run. A fresh instance per run keeps stateful strategies (static's random
// stream) independent across runs and goroutines.
type Maker struct {
	Label string
	Make  func(hybrid.Config) (routing.Strategy, error)
}

// Point is one configuration of a Sweep and the name that tells it apart
// from the sweep's other points, e.g. "rate 2.5" or "PWrite=0.25".
type Point struct {
	Name string
	Cfg  hybrid.Config
}

// Cell is one run of a Sweep: its label, the exact configuration it ran
// (seed included) and what it measured.
type Cell struct {
	Label  string
	Cfg    hybrid.Config
	Result hybrid.Result
}

// Sweep runs every maker at every point, reps times (at least once), across
// one worker pool, and returns the cells indexed [maker][point][rep]. Cell
// (m, p, r) runs on RunSeed(points[p].Cfg.Seed, makers[m].Label, p, r), so
// replication 0 keeps the point's own seed and the results are bit-identical
// for any Options. It is labelled "<maker> at <point name> rep <r>" in
// progress events, errors and manifests. Tasks are dispatched
// strategy-major, which is also the order progress labels and manifests
// see. A cancelled sweep returns the cube alongside the context's error,
// never-started cells holding a zero Result.
func Sweep(points []Point, makers []Maker, reps int, opt Options) ([][][]Cell, error) {
	reps = max(reps, 1)
	tasks := make([]Task, 0, len(makers)*len(points)*reps)
	for _, mk := range makers {
		for p, pt := range points {
			for r := 0; r < reps; r++ {
				cfg := pt.Cfg
				cfg.Seed = RunSeed(pt.Cfg.Seed, mk.Label, p, r)
				tasks = append(tasks, Task{
					Label: fmt.Sprintf("%s at %s rep %d", mk.Label, pt.Name, r),
					Cfg:   cfg,
					Make:  mk.Make,
				})
			}
		}
	}
	results, err := RunOpts(tasks, opt)
	if results == nil {
		return nil, err
	}
	cells := make([]Cell, len(tasks))
	for i, t := range tasks {
		cells[i] = Cell{Label: t.Label, Cfg: t.Cfg, Result: results[i]}
	}
	cube := make([][][]Cell, len(makers))
	for m := range cube {
		cube[m] = make([][]Cell, len(points))
		for p := range cube[m] {
			cube[m][p], cells = cells[:reps:reps], cells[reps:]
		}
	}
	return cube, err
}

// Task is one independent simulation run: a complete configuration (seed
// included) plus a constructor for a fresh strategy instance. The strategy is
// built inside the worker so stateful strategies are never shared between
// goroutines. Outside the correctness harness, whose tasks carry Prepare
// hooks, tasks are built by Sweep.
type Task struct {
	// Label identifies the task in error messages, e.g. "static* at rate 2.5".
	Label string
	Cfg   hybrid.Config
	Make  func(hybrid.Config) (routing.Strategy, error)
	// Prepare, when non-nil, runs on the freshly built engine before it
	// starts — the hook the correctness harness uses to subscribe observers.
	// It runs inside the worker, so anything it wires up must be private to
	// this task.
	Prepare func(*hybrid.Engine)
}

// Parallelism resolves a requested worker count: any positive value is used
// as given, anything else selects GOMAXPROCS.
func Parallelism(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// TaskWeight is the number of pool slots a task occupies: the count of OS
// threads its engine keeps busy, Config.EffectiveShards — 1 for a sequential
// run, the shard count for a sharded one, because the engine spawns that
// many internal workers. A config that will silently run sequentially is
// thereby not budgeted as if it were parallel; a task whose Prepare hook
// subscribes external observers (forcing the sequential core) is
// over-budgeted, which only under-fills the pool, never oversubscribes it.
func TaskWeight(cfg hybrid.Config) int {
	n, _ := cfg.EffectiveShards()
	return n
}

// ProgressEvent reports the pool's state after one task finishes. Events are
// delivered serially (never concurrently), in completion order — which under
// parallelism is not task order.
type ProgressEvent struct {
	Done  int    // tasks finished so far, including this one
	Total int    // total tasks in this Run
	Label string // label of the task that just finished
	// Elapsed is the wall time since Run started.
	Elapsed time.Duration
	// ETA estimates the remaining wall time by extrapolating the pool's
	// observed completion throughput over the outstanding tasks. It is 0
	// when nothing remains.
	ETA time.Duration
}

// Options configures a RunOpts pool.
type Options struct {
	// Parallelism bounds the worker pool; 0 or negative selects GOMAXPROCS.
	// The value changes only wall-clock time, never results.
	Parallelism int
	// Progress, when non-nil, is called after each task completes. Calls are
	// serialized, so the callback needs no locking of its own. The callback
	// observes wall-clock completion order and timing only — simulation
	// results are unaffected by its presence.
	Progress func(ProgressEvent)
	// Context, when non-nil, cancels the pool: no new task starts after it
	// is done, in-flight tasks finish (the engines have no preemption
	// point), and RunOpts returns the partial results alongside ctx.Err().
	// A never-started task leaves its zero Result in place — detectable by
	// Result.Window == 0, since every completed run measures a positive
	// window.
	Context context.Context
}

// Run executes every task, at most parallelism at once (0 or negative means
// GOMAXPROCS), and returns the results in task order. The worker count
// affects only wall-clock time: each task carries its own seed, so the
// returned slice is identical for any parallelism. On error the first failing
// task (in task order, not completion order) is reported.
func Run(tasks []Task, parallelism int) ([]hybrid.Result, error) {
	return RunOpts(tasks, Options{Parallelism: parallelism})
}

// RunOpts is Run with pool options. Results are identical to Run's for any
// Options — progress reporting is observation only, and cancellation only
// truncates which tasks ran, never what a completed task measured. On
// cancellation the partial results are returned (full-length, task order;
// never-started tasks are zero) together with the context's error.
//
// Admission is weight-based: each task occupies TaskWeight(task.Cfg) pool
// slots for its whole run, so a sweep mixing sharded and sequential runs
// keeps total engine threads at or below the pool size instead of counting a
// Shards=8 engine as one unit of work. Tasks are admitted in task order; a
// task heavier than the whole pool is clamped to the pool size so it still
// runs (alone).
func RunOpts(tasks []Task, opt Options) ([]hybrid.Result, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]hybrid.Result, len(tasks))
	errs := make([]error, len(tasks))
	workers := Parallelism(opt.Parallelism)
	prog := newProgress(opt.Progress, len(tasks))
	if workers <= 1 || len(tasks) <= 1 {
		for i := range tasks {
			if ctx.Err() != nil {
				return results, ctx.Err()
			}
			if err := runTask(&tasks[i], &results[i]); err != nil {
				return nil, err
			}
			prog.done(tasks[i].Label)
		}
		return results, nil
	}

	// Weighted admission: sem holds one token per occupied pool slot. The
	// dispatch loop below is the only acquirer, so taking a task's tokens one
	// at a time cannot deadlock against another admission — it just waits for
	// completions to drain tokens.
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
dispatch:
	for i := range tasks {
		w := TaskWeight(tasks[i].Cfg)
		if w > workers {
			w = workers // heavier than the pool: run alone rather than never
		}
		for taken := 0; taken < w; taken++ {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// Partially acquired tokens are abandoned: admission stops
				// here, and stray tokens only ever understate free capacity.
				break dispatch
			}
		}
		wg.Add(1)
		go func(i, w int) {
			defer wg.Done()
			errs[i] = runTask(&tasks[i], &results[i])
			prog.done(tasks[i].Label)
			for released := 0; released < w; released++ {
				<-sem
			}
		}(i, w)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return results, ctx.Err()
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// progress serializes completion callbacks and derives the ETA.
type progress struct {
	mu    sync.Mutex
	cb    func(ProgressEvent)
	total int
	count int
	start time.Time
}

func newProgress(cb func(ProgressEvent), total int) *progress {
	if cb == nil {
		return nil
	}
	return &progress{cb: cb, total: total, start: time.Now()}
}

func (p *progress) done(label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	elapsed := time.Since(p.start)
	ev := ProgressEvent{Done: p.count, Total: p.total, Label: label, Elapsed: elapsed}
	if left := p.total - p.count; left > 0 && p.count > 0 {
		// elapsed/count is the pool's observed wall-clock throughput, so it
		// already reflects the worker width.
		ev.ETA = elapsed / time.Duration(p.count) * time.Duration(left)
	}
	p.cb(ev)
}

func runTask(t *Task, out *hybrid.Result) error {
	if t.Make == nil {
		return fmt.Errorf("runner: %s: nil strategy maker", t.Label)
	}
	strat, err := t.Make(t.Cfg)
	if err != nil {
		return fmt.Errorf("runner: %s: %w", t.Label, err)
	}
	engine, err := hybrid.New(t.Cfg, strat)
	if err != nil {
		return fmt.Errorf("runner: %s: %w", t.Label, err)
	}
	if t.Prepare != nil {
		t.Prepare(engine)
	}
	*out = engine.Run()
	return nil
}

// DeriveSeed maps a (base seed, strategy label, rate index, replication
// index) tuple to a run seed through splitmix64-style finalizer rounds over
// an FNV-1a hash of the label. The derivation is a pure function — stable
// across calls, processes, and Go releases — and scrambles every input bit,
// so distinct tuples yield distinct, well-separated seed streams and changing
// only the base seed reseeds every derived run.
func DeriveSeed(base uint64, label string, rateIdx, rep int) uint64 {
	const golden = 0x9e3779b97f4a7c15
	h := mix64(base + golden)
	h = mix64(h ^ fnv1a(label))
	h = mix64(h ^ (uint64(uint32(rateIdx))+1)*golden)
	h = mix64(h ^ (uint64(uint32(rep))+1)*golden)
	return h
}

// RunSeed is the seed schedule of the replicated experiment sweeps:
// replication 0 keeps the base seed, so a single-replication sweep is
// bit-identical to the historical single-run path and all strategies face
// common random numbers (a variance-reduction choice for paired
// comparisons); additional replications draw fresh streams from DeriveSeed.
func RunSeed(base uint64, label string, rateIdx, rep int) uint64 {
	if rep == 0 {
		return base
	}
	return DeriveSeed(base, label, rateIdx, rep)
}

// mix64 is the splitmix64 output finalizer (Steele, Lea & Flood): a bijective
// avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv1a hashes a label with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
