package hybrid

import (
	"fmt"

	"hybriddb/internal/comm"
	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/rng"
	"hybriddb/internal/routing"
	"hybriddb/internal/sim"
	"hybriddb/internal/workload"
)

// Engine wires the substrates into the full hybrid system simulation: N
// SiteNodes and one CentralNode on simulator event queues, joined by the
// simulator's wire. The logic lives in layers, each in its own file:
//
//   - node layer (node.go): SiteNode/CentralNode state, admission and
//     routing, view snapshots, and disk/CPU server construction;
//   - transaction lifecycle layer (txn.go, path.go,
//     commit.go): the run phase machine and the cross-site
//     authenticate/ack/nack commit protocol;
//   - propagation layer (propagate.go): asynchronous update application and
//     the piggybacked central-state feedback routingState consumes;
//   - transport seam (seam.go, wire_sim.go): the seven messages as Message
//     values, the Sender nodes hand them to, the simulated star network
//     that carries them, and the nodes' Deliver switch;
//   - observer bus (obs package, wired here): metrics, tracing, queue
//     sampling, and invariant self-checks subscribe to node events.
//
// Engine itself only constructs, wires, generates arrivals, and drives the
// run loop — which is either the single-queue sequential loop (the bit-exact
// oracle) or the sharded conservative-parallel loop (parallel.go), selected
// at Run time.
type Engine struct {
	// env is what the engine's nodes share — configuration, observer bus,
	// and the two directions of wire. Every observation flows through the
	// bus; tracing and self-checking subscribe on demand.
	env      nodeEnv
	strategy routing.Strategy

	simulator *sim.Simulator // the sequential event queue (shard 0's in a sharded run)
	// wire is the simulator's Sender, for both directions: Messages over
	// comm.NetworkOf, or over shardNet in a sharded run.
	wire      simWire
	generator *workload.Generator
	arrivals  []*workload.Arrivals
	nhpp      []*workload.NHPPArrivals // non-nil when RateSchedules is set

	// The partitions. Stateful strategies (routing.SiteLocal) are forked one
	// per site so each site's decision stream is a pure function of that
	// site's arrivals; stateless ones are shared. Both run modes use the same
	// instances, which is what makes their decision streams bit-identical.
	sites   []*SiteNode
	central *CentralNode

	// Sharded-run state (parallel.go); group is nil in a sequential run.
	group    *sim.GroupOf[Message]
	parallel bool

	// m is the metrics observer, always subscribed: it produces the Result.
	// externalObs counts observers from outside the engine — their presence
	// forces the sequential loop, since only a single event queue produces
	// one globally ordered event stream.
	m           *metrics
	externalObs int

	// Recorded workload replay (SetTrace). When non-nil, replayTxns is
	// grouped by home site and replaces the Poisson generator.
	replayTxns [][]*workload.Txn
	replayGaps [][]float64

	horizon float64
}

// New builds an engine for the configuration and strategy.
func New(cfg Config, strategy routing.Strategy) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if strategy == nil {
		return nil, fmt.Errorf("hybrid: nil strategy")
	}
	s := sim.New()
	root := rng.New(cfg.Seed)
	e := &Engine{
		strategy:  strategy,
		simulator: s,
		generator: workload.NewGenerator(cfg.WorkloadConfig(), root.Split().Uint64()),
		m:         newMetrics(cfg.SeriesBucket, cfg.Duration, cfg.Sites),
		central:   &CentralNode{},
		horizon:   cfg.Warmup + cfg.Duration,
	}
	e.env.init(cfg, nil)
	e.env.poolSpecs = true
	e.env.up, e.env.down = &e.wire, &e.wire
	e.central.init(&e.env, exec.Sim(s))
	e.wire.net = comm.NewNetworkOf(s, cfg.Sites, cfg.CommDelay, e.wire.toCentral, e.wire.toSite)
	e.env.bus.Subscribe(e.m)
	if cfg.SelfCheck {
		e.env.bus.Subscribe(invariantObserver{e})
	}
	arrivalSeeds := root.Split()
	for i := 0; i < cfg.Sites; i++ {
		site := &SiteNode{strategy: strategy}
		site.init(&e.env, i, exec.Sim(s))
		if cfg.Feedback == FeedbackIdeal {
			site.ideal = e.central
		}
		e.sites = append(e.sites, site)
		if cfg.RateSchedules != nil {
			e.nhpp = append(e.nhpp, workload.NewNHPPArrivals(cfg.RateSchedules[i], arrivalSeeds.Uint64()))
		} else {
			e.arrivals = append(e.arrivals, workload.NewArrivals(cfg.SiteRate(i), arrivalSeeds.Uint64()))
		}
	}
	e.wire.sites, e.wire.central = e.sites, e.central
	if sl, ok := strategy.(routing.SiteLocal); ok {
		stratSeeds := root.Split()
		for i, site := range e.sites {
			site.strategy = sl.ForSite(i, stratSeeds.Uint64())
		}
	}
	return e, nil
}

// Subscribe attaches an observer to the engine's bus. Call before Run.
// Observers implementing obs.DetailObserver also receive the protocol-detail
// (trace) stream. An external observer pins the run to the sequential loop:
// only a single event queue delivers one globally ordered event stream.
func (e *Engine) Subscribe(o obs.Observer) {
	e.externalObs++
	e.env.bus.Subscribe(o)
}

// SetTrace replaces the synthetic workload with a recorded transaction
// stream (see workload.Capture/ReadAll): gaps[i] is the interarrival time of
// txns[i] at its home site, relative to the previous trace transaction of
// that site. Call before Run. Transactions beyond the simulation horizon
// simply never arrive.
func (e *Engine) SetTrace(txns []*workload.Txn, gaps []float64) error {
	if len(txns) != len(gaps) {
		return fmt.Errorf("hybrid: %d transactions but %d gaps", len(txns), len(gaps))
	}
	byTxns := make([][]*workload.Txn, e.env.cfg.Sites)
	byGaps := make([][]float64, e.env.cfg.Sites)
	seen := make(map[int64]struct{}, len(txns))
	for i, t := range txns {
		if t == nil {
			return fmt.Errorf("hybrid: nil transaction at index %d", i)
		}
		if t.HomeSite < 0 || t.HomeSite >= e.env.cfg.Sites {
			return fmt.Errorf("hybrid: transaction %d home site %d out of range", t.ID, t.HomeSite)
		}
		if gaps[i] < 0 {
			return fmt.Errorf("hybrid: negative gap at index %d", i)
		}
		if _, dup := seen[t.ID]; dup {
			return fmt.Errorf("hybrid: duplicate transaction id %d", t.ID)
		}
		seen[t.ID] = struct{}{}
		byTxns[t.HomeSite] = append(byTxns[t.HomeSite], t)
		byGaps[t.HomeSite] = append(byGaps[t.HomeSite], gaps[i])
	}
	e.replayTxns = byTxns
	e.replayGaps = byGaps
	e.env.poolSpecs = false // replayed specs belong to the caller
	return nil
}

// Parallel reports whether the last (or, after setup, current) Run uses the
// sharded core. Meaningful after Run returns; used by tests and by the CLI
// to report the effective mode.
func (e *Engine) Parallel() bool { return e.parallel }

// Run executes the simulation and returns the measured result.
func (e *Engine) Run() Result {
	e.setupRunMode()
	if e.replayTxns != nil {
		for i := range e.sites {
			e.scheduleReplay(i, 0)
		}
	} else {
		for i := range e.sites {
			e.scheduleArrival(i)
		}
	}
	// The global events, in the order a sequential run inserts them and a
	// sharded one ranks them at a shared instant.
	e.atGlobal(e.env.cfg.Warmup, prioMeasure, e.startMeasurement)
	if e.env.cfg.SelfCheck {
		e.chain(0, 10, prioSelfCheck, (*Engine).selfCheck)
	}
	e.chain(0, 1, prioSample, (*Engine).sampleQueues)
	e.armEpochTicks()
	if e.parallel {
		e.group.Run(e.horizon)
	} else {
		e.simulator.RunUntil(e.horizon)
	}
	if e.env.cfg.SelfCheck {
		e.selfCheck(e.horizon)
	}
	return e.result()
}

// atGlobal schedules fn at instant at with every partition's clock on it:
// an event of the one queue in a sequential run, a barrier event of rank
// prio in a sharded one.
func (e *Engine) atGlobal(at float64, prio int, fn func()) {
	if e.parallel {
		e.group.ScheduleGlobalAt(at, prio, fn)
		return
	}
	e.simulator.ScheduleAt(at, fn)
}

// chain arms a global event chain: fire(e, next) at next = last+interval,
// then the next link, up to the horizon. Both run modes build the instants
// by the same repeated addition.
func (e *Engine) chain(last, interval float64, prio int, fire func(*Engine, float64)) {
	next := last + interval
	if next > e.horizon {
		return
	}
	e.atGlobal(next, prio, func() {
		fire(e, next)
		e.chain(next, interval, prio, fire)
	})
}

func (e *Engine) scheduleArrival(site int) {
	ls := e.sites[site]
	var gap float64
	if e.nhpp != nil {
		gap = e.nhpp[site].Next(ls.sched.Now())
	} else {
		gap = e.arrivals[site].Next()
	}
	if ls.sched.Now()+gap > e.horizon {
		return // no arrivals beyond the horizon
	}
	if ls.arriveFn == nil {
		ls.arriveFn = func() {
			var spec *workload.Txn
			if n := len(ls.specFree); n > 0 {
				spec = ls.specFree[n-1]
				ls.specFree[n-1] = nil
				ls.specFree = ls.specFree[:n-1]
			}
			ls.Admit(e.generator.NextInto(site, spec))
			e.scheduleArrival(site)
		}
	}
	ls.sched.Schedule(gap, ls.arriveFn)
}

func (e *Engine) scheduleReplay(site, idx int) {
	if idx >= len(e.replayTxns[site]) {
		return
	}
	ls := e.sites[site]
	gap := e.replayGaps[site][idx]
	if ls.sched.Now()+gap > e.horizon {
		return
	}
	ls.sched.Schedule(gap, func() {
		ls.Admit(e.replayTxns[site][idx])
		e.scheduleReplay(site, idx+1)
	})
}

// startMeasurement opens the measurement window: every partition snapshots
// its event counts and CPU busy time, and observers arm themselves on the
// MeasureStart event. In a sharded run it executes at a barrier with every
// shard clock aligned on the warmup instant, so the busy-time snapshots
// (which integrate up to "now") read exactly as in the sequential run.
func (e *Engine) startMeasurement() {
	for _, ls := range e.sites {
		ls.markWarmup()
	}
	e.central.markWarmup()
	e.env.bus.Emit(obs.Event{At: e.env.cfg.Warmup, Kind: obs.MeasureStart})
}

// sampleQueues is the 1 Hz queue-length observation; at is the sample
// instant (every shard clock sits on it in a sharded run).
func (e *Engine) sampleQueues(at float64) {
	total := 0
	for _, ls := range e.sites {
		total += ls.cpu.QueueLength()
	}
	e.env.bus.Emit(obs.Event{
		At:    at,
		Kind:  obs.QueueSample,
		Value: float64(e.central.cpu.QueueLength()),
		Aux:   float64(total) / float64(len(e.sites)),
	})
}

// selfCheck asks the invariant observer to audit the engine at instant at.
func (e *Engine) selfCheck(at float64) {
	e.env.bus.Emit(obs.Event{At: at, Kind: obs.SelfCheck})
}

// armEpochTicks starts every site's epoch ticker (epoch-batched propagation
// only), in ascending site index and last in Run — after setupRunMode has
// settled each site on its executor and after the global chains — in both
// run modes alike, so the sites' coinciding boundary flushes keep one order.
func (e *Engine) armEpochTicks() {
	for _, ls := range e.sites {
		ls.armEpochTick()
	}
}

// flow sums the partitions' event counts into the conservation totals:
// transactions generated and completed, shipped inputs still travelling to
// the central site, and completion replies still travelling to their origin.
func (e *Engine) flow() (generated, completed, shipping, replying uint64) {
	var shipped, replied uint64
	for _, ls := range e.sites {
		generated += ls.counts.Arrivals()
		completed += ls.counts.Completed()
		shipped += ls.counts.Shipped()
		replied += ls.counts[obs.TxnReply]
	}
	c := &e.central.counts
	return generated, completed, shipped - c[obs.ShipArrive], c[obs.TxnCentralCommit] - replied
}
