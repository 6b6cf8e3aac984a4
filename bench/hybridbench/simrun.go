package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/routing"
	"hybriddb/internal/trace"
)

// Simulated seconds run per requested second of measurement. The amount of
// simulated work is fixed by (workload, seconds), never by the clock, so the
// same seed gives the same transactions on every host and every commit; the
// constants make one timed run last about `seconds` on the 2-core reference
// host.
const (
	paperSimPerSecond = 3400.0
	scaleSimPerSecond = 30.0
)

// simPlan is one simulator workload at one seed and length.
type simPlan struct {
	name     string
	cfg      hybrid.Config // Shards left 0; the runner sets it per timed run
	strategy func(hybrid.Config) routing.Strategy
	dual     bool // run sharded (Shards=2) and then sequential, and compare
}

func bestStrategy(cfg hybrid.Config) routing.Strategy {
	return routing.MinAverage{Params: cfg.ModelParams(), Estimator: routing.FromInSystem}
}

// simPlanFor builds the configuration of a sim-* workload. seconds scales
// the measured simulated duration; everything else is fixed.
func simPlanFor(name string, seed uint64, seconds float64) simPlan {
	cfg := hybrid.DefaultConfig()
	cfg.Seed = seed
	switch name {
	case wlSimPaper, wlSimContended:
		cfg.ArrivalRatePerSite = 2.5
		cfg.Warmup = 200
		cfg.Duration = paperSimPerSecond * seconds
		if name == wlSimContended {
			cfg.SkewTheta = 0.8
			cfg.PWrite = 0.5
			cfg.CentralHotFraction = 0.5
			cfg.ColdFetchDelay = 0.0137
			cfg.EpochLength = 0.25
		}
		return simPlan{name: name, cfg: cfg, strategy: bestStrategy}
	case wlSimScale:
		// The cmd/hybridsim scale1000 preset's values.
		cfg.Sites = 1000
		cfg.ArrivalRatePerSite = 1
		cfg.CentralMIPS = 1500
		cfg.Lockspace = 3_276_800
		cfg.Warmup = 10
		cfg.Duration = scaleSimPerSecond * seconds
		return simPlan{name: name, cfg: cfg, dual: true,
			strategy: func(hybrid.Config) routing.Strategy { return routing.NewStatic(0.5, 7) }}
	}
	panic("hybridbench: not a simulator workload: " + name)
}

// timedSim is the outcome of one timed Engine.Run.
type timedSim struct {
	res      hybrid.Result
	wall     float64 // seconds inside Run
	cpu      float64 // process CPU seconds inside Run
	mallocs  uint64  // heap objects allocated inside Run
	parallel bool
}

func (t timedSim) txnPerSecond() float64 { return float64(t.res.Completed) / t.wall }

// newEngine builds a fresh engine (strategy included) and reports how long
// construction took.
func (p simPlan) newEngine(shards int) (*hybrid.Engine, float64, error) {
	cfg := p.cfg
	cfg.Shards = shards
	t0 := time.Now()
	e, err := hybrid.New(cfg, p.strategy(cfg))
	return e, time.Since(t0).Seconds(), err
}

// timeRun runs the engine once with the collector quiesced first, so that
// garbage from set-up is not charged to the run.
func timeRun(e *hybrid.Engine) timedSim {
	runtime.GC()
	m0, c0, t0 := mallocs(), cpuSeconds(), time.Now()
	res := e.Run()
	wall := time.Since(t0).Seconds()
	return timedSim{res: res, wall: wall, cpu: cpuSeconds() - c0, mallocs: mallocs() - m0, parallel: e.Parallel()}
}

// setupTimer times engine construction. Construction takes tens of
// microseconds at ten sites, so one sample times a batch of constructions
// (about a millisecond's worth). The collector is switched off inside a
// sample and run between samples: with it on, whether a cycle falls inside a
// batch decided the sample, and the median sat at 38 us in one process and
// 77 us in the next. What is left is deterministic work, which interference
// only ever slows — so, as for the timed repeats, the fastest sample is the
// one to report. Samples are taken before the first timed run and again
// before every repeat, so that they span the whole run and not one 30 ms
// window of it: the host's slow spells last longer than that.
type setupTimer struct {
	p      simPlan
	shards int
	batch  int     // constructions per sample
	best   float64 // fastest sample so far, seconds per construction
}

// timeBatch constructs n engines with the collector off and returns the
// last engine with the mean and the fastest construction time.
func (s *setupTimer) timeBatch(n int) (eng *hybrid.Engine, mean, fastest float64, err error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fastest = math.Inf(1)
	for i := 0; i < n; i++ {
		var dt float64
		if eng, dt, err = s.p.newEngine(s.shards); err != nil {
			return nil, 0, 0, err
		}
		mean += dt / float64(n)
		fastest = min(fastest, dt)
	}
	return eng, mean, fastest, nil
}

// sample takes n samples and returns the last engine constructed.
func (s *setupTimer) sample(n int) (eng *hybrid.Engine, err error) {
	for i := 0; i < n; i++ {
		var mean float64
		if eng, mean, _, err = s.timeBatch(s.batch); err != nil {
			return nil, err
		}
		s.best = min(s.best, mean)
	}
	return eng, nil
}

// Set-up samples taken before the first timed run, and before each repeat.
const (
	setupSamplesFirst  = 31
	setupSamplesRepeat = 5
)

// newSetupTimer sizes the batch (about a millisecond per sample, by the
// fastest construction of a first twenty milliseconds: a process's first
// constructions, while the heap grows, are several times slower than the
// rest) and takes the first samples.
func (p simPlan) newSetupTimer(shards int, quick bool) (*setupTimer, *hybrid.Engine, error) {
	s := &setupTimer{p: p, shards: shards, best: math.Inf(1)}
	one := math.Inf(1)
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
		_, _, fastest, err := s.timeBatch(1)
		if err != nil {
			return nil, nil, err
		}
		one = min(one, fastest)
	}
	s.batch = min(max(int(1e-3/one), 1), 64)
	samples := setupSamplesFirst
	if quick {
		samples = 3
	}
	eng, err := s.sample(samples)
	return s, eng, err
}

// conservationGap returns how many generated transactions the result does
// not account for: every one is completed, resident, or in flight.
func conservationGap(r hybrid.Result) int64 {
	accounted := r.Completed + r.InSystemAtEnd + r.InFlightShip + r.InFlightReply
	gap := int64(r.Generated) - int64(accounted)
	if gap < 0 {
		gap = -gap
	}
	return gap
}

// simOutcome carries the correctness verdict of a sim workload.
type simOutcome struct {
	attempted int64
	failed    int64
	problems  []string
}

func (o *simOutcome) failAll(format string, args ...any) {
	o.failed = o.attempted
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checkSim applies the correctness checks shared by traced and untraced
// runs: conservation, sharded==sequential where both ran, and the pinned
// digest when one exists for this (workload, seed, length).
func checkSim(p simPlan, primary hybrid.Result, sequential *hybrid.Result, digests digestFile, log io.Writer) simOutcome {
	o := simOutcome{attempted: int64(primary.Generated)}
	if o.attempted < 1 {
		o.attempted = 1
		o.failAll("no transactions generated")
		return o
	}
	if gap := conservationGap(primary); gap != 0 {
		o.failed += gap
		o.problems = append(o.problems, fmt.Sprintf("conservation: %d transactions unaccounted for", gap))
	}
	got := digestOf(primary)
	if sequential != nil {
		if seq := digestOf(*sequential); seq != got {
			o.failAll("sharded run differs from sequential run:\n  sharded    %+v\n  sequential %+v", got, seq)
		}
	}
	key := digestKey(p.name, p.cfg.Seed, p.cfg.Duration)
	if want, ok := digests[key]; ok {
		if want != got {
			o.failAll("digest mismatch for %s:\n  pinned %+v\n  got    %+v", key, want, got)
		}
	} else {
		fmt.Fprintf(log, "# digest for %s is not pinned; invariants only\n", key)
	}
	return o
}

// Repeats of the timed run. sim-paper and sim-contended run simRepeats
// engines of their own, each a tenth of the requested length, all on the
// same seed: identical work, so their results must agree bit for bit — a
// determinism check on every run — and the fastest repeat is reported.
// Nothing makes identical single-threaded work run faster than the machine
// allows, while the reference host has two speeds a quarter apart (a
// neighbour on the hypervisor, presumably on the sibling hyperthread) and
// switches between them every few seconds to minutes; the fastest repeat is
// the one the neighbour touched least. Twenty repeats of about a second span
// twenty seconds: with ten, half of the runs of one calibration met a fast
// spell and half did not. sim-scale1000 is about engine size and page
// faults, which many small runs would not show: it runs five times sharded
// and once sequential, each at half the requested length, reports the
// fastest sharded run, and requires all six results identical.
const (
	simRepeats   = 20
	scaleRepeats = 5 // sharded runs; plus one sequential
)

// simRunSeconds is the `seconds` one timed engine run of a workload
// simulates, given the requested length of a timed section.
func simRunSeconds(workload string, seconds float64) float64 {
	if workload == wlSimScale {
		return seconds / 2
	}
	return seconds / 10
}

// runSimUntraced measures a sim-* workload's end-to-end metrics.
func runSimUntraced(opt options, log io.Writer) (runResult, error) {
	p := simPlanFor(opt.workload, opt.seed, simRunSeconds(opt.workload, opt.seconds))
	shards, repeats := 0, simRepeats
	if p.dual {
		shards, repeats = 2, scaleRepeats
	}
	if opt.quick {
		repeats = min(repeats, 2) // still enough to compare a repeat
	}
	setup, eng, err := p.newSetupTimer(shards, opt.quick)
	if err != nil {
		return runResult{}, err
	}
	runs := []timedSim{timeRun(eng)}
	eng = nil // a finished engine is garbage: it must not sit in the peak
	primary := runs[0]
	if p.dual && !primary.parallel {
		return runResult{}, fmt.Errorf("%s: the sharded core did not engage", p.name)
	}
	var repeatProblem string
	for len(runs) < repeats {
		if eng, err = setup.sample(setupSamplesRepeat); err != nil {
			return runResult{}, err
		}
		r := timeRun(eng)
		eng = nil
		if digestOf(r.res) != digestOf(primary.res) {
			repeatProblem = fmt.Sprintf("repeat %d of the same seed gave a different result", len(runs))
		}
		runs = append(runs, r)
	}
	var rates, cpuPerTxn []float64
	for _, r := range runs {
		rates = append(rates, r.txnPerSecond())
		cpuPerTxn = append(cpuPerTxn, r.cpu*1e6/float64(r.res.Completed))
	}
	fmt.Fprintf(log, "# %s: per run %.0f txn/s, %.2f us CPU per txn\n", p.name, rates, cpuPerTxn)
	var seqRes *hybrid.Result
	if p.dual {
		seqEng, _, err := p.newEngine(0)
		if err != nil {
			return runResult{}, err
		}
		seq := timeRun(seqEng)
		seqRes = &seq.res
		runs = append(runs, seq)
		fmt.Fprintf(log, "# sequential run: %.0f txn/s (sharded/sequential = %.3f)\n",
			seq.txnPerSecond(), slices.Max(rates)/seq.txnPerSecond())
	}
	digests, err := loadDigests(opt.digests)
	if err != nil {
		return runResult{}, err
	}
	o := checkSim(p, primary.res, seqRes, digests, log)
	if repeatProblem != "" {
		o.failAll("%s", repeatProblem)
	}
	for _, msg := range o.problems {
		fmt.Fprintf(log, "FAIL %s: %s\n", p.name, msg)
	}
	fmt.Fprintf(log, "# %s: mean RT %x simulated s, %d completed per run, ship fraction %.4f, %.4f aborts/txn\n",
		p.name, primary.res.MeanRT, primary.res.Completed, primary.res.ShipFraction,
		float64(primary.res.TotalAborts())/float64(primary.res.Completed))

	var totalMallocs, totalTxns uint64
	for _, r := range runs {
		totalMallocs += r.mallocs
		totalTxns += r.res.Completed
	}
	m := newMetricSet(endToEnd)
	m.set("setup_s", setup.best)
	m.set("txn_per_s", slices.Max(rates))
	m.set("allocs_per_txn", float64(totalMallocs)/float64(totalTxns))
	m.set("peak_rss_mb", peakRSSMiB())
	m.set("rt_mean_ms", primary.res.MeanRT*1e3)
	m.set("rt_p50_ms", primary.res.RTPercentiles.P50*1e3)
	m.set("rt_p95_ms", primary.res.RTPercentiles.P95*1e3)
	return runResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m.export()}, nil
}

// countingObserver tallies every bus event by kind. Subscribing it is what
// "tracing on" means for a simulator run: it asks for the protocol-detail
// stream, so the engine renders every trace event for it.
type countingObserver struct {
	lifecycle [obs.TraceDetail + 1]uint64
	detail    [trace.ReplyDelivered + 1]uint64
	total     uint64
}

func (c *countingObserver) WantDetail() bool { return true }

func (c *countingObserver) OnEvent(ev obs.Event) {
	c.total++
	if ev.Kind == obs.TraceDetail {
		if int(ev.Trace) < len(c.detail) {
			c.detail[ev.Trace]++
		}
		return
	}
	if int(ev.Kind) < len(c.lifecycle) {
		c.lifecycle[ev.Kind]++
	}
}

// simCounts are per-transaction operation counts of one traced simulator
// run, the multipliers of the layer budget.
type simCounts struct {
	detailEvents float64
	lockRequests float64
	lockWaits    float64
	seizes       float64
	deadlocks    float64 // per transaction (reported per thousand)
	executions   float64
	commits      float64
	aborts       float64
	authRounds   float64
	coldFetches  float64
	msgs         float64
	cpuBursts    float64 // derived, see deriveSimCounts
	ioEvents     float64 // derived
	kernelEvents float64 // derived: events no other layer's probe already includes
	localCommits float64
}

// deriveSimCounts turns the observer's tallies into per-transaction counts.
// Counts the bus does not carry are derived from the lifecycle's shape: a
// first execution is one set-up burst, one set-up I/O, and per call one
// burst and one I/O; a re-run repeats the call bursts only (no set-up, no
// I/O); a deadlock abort ends an execution about half way.
func deriveSimCounts(c *countingObserver, res hybrid.Result, calls int) simCounts {
	n := float64(res.Completed)
	per := func(k trace.Kind) float64 { return float64(c.detail[k]) / n }
	s := simCounts{
		detailEvents: float64(c.total) / n,
		lockRequests: per(trace.LockRequest),
		lockWaits:    per(trace.LockWaitBegin),
		seizes:       per(trace.AuthSeized),
		deadlocks:    per(trace.DeadlockAbort),
		commits:      per(trace.CommitLocal) + per(trace.CommitCentral),
		localCommits: per(trace.CommitLocal),
		authRounds:   float64(c.lifecycle[obs.AuthRound]) / n,
		coldFetches:  float64(c.lifecycle[obs.ColdFetch]) / n,
		msgs:         float64(res.MessagesSent) / n,
	}
	arrivals := per(trace.Arrive)
	s.aborts = per(trace.Rerun) + s.deadlocks
	s.executions = arrivals + s.aborts
	k := float64(calls)
	s.cpuBursts = arrivals + k*s.executions - s.deadlocks*k/2
	s.ioEvents = arrivals * (1 + k)
	s.kernelEvents = arrivals + s.ioEvents + s.aborts + s.coldFetches
	return s
}
