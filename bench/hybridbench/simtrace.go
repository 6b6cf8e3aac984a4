package main

import (
	"fmt"
	"io"

	"hybriddb/internal/hybrid"
)

// budgetRow is one line of the layer budget: what one operation of a layer
// costs (a probe), how many of them a transaction needs (a traced count),
// and their product.
type budgetRow struct {
	layer   string
	probe   string
	nsPerOp float64
	perTxn  float64
}

func (r budgetRow) ns() float64 { return r.nsPerOp * r.perTxn }

// simBudget assembles the budget of a sequential simulator run. The engine
// is single-threaded, so nothing overlaps and the rows add: a layer's row is
// the most that layer can save of hybrid.ns_per_txn. What the rows do not
// cover — the lifecycle glue in internal/hybrid, cache misses the isolated
// probes do not suffer, and whatever the derived counts miss — is the
// residual, reported and never hidden.
func simBudget(p simPlan, c simCounts, probe map[string]float64) []budgetRow {
	kernel := "sim.schedule_step_ns"
	if p.cfg.Sites >= 1000 {
		kernel = "sim.hold_64k_ns" // a thousand sites keep a deep calendar
	}
	next := "workload.next_ns"
	if p.cfg.SkewTheta > 0 {
		next = "workload.next_skewed_ns"
	}
	decide := "routing.decide_best_ns"
	if p.dual {
		decide = "routing.decide_static_ns"
	}
	calls := float64(p.cfg.CallsPerTxn)
	row := func(layer, name string, perTxn float64) budgetRow {
		return budgetRow{layer: layer, probe: name, nsPerOp: probe[name], perTxn: perTxn}
	}
	return []budgetRow{
		// Events no other row's probe already steps: I/O delays, arrivals,
		// restart delays, cold fetches. CPU bursts and messages carry their
		// own kernel event inside their probes.
		row("sim", kernel, c.kernelEvents),
		row("lock", "lock.txn_lifecycle_ns", c.lockRequests/calls),
		row("lock", "lock.contended_ns", c.lockWaits),
		row("lock", "lock.seize_ns", c.seizes),
		row("lock", "lock.deadlock_ns", c.deadlocks),
		row("lock", "lock.coherence_ns", c.localCommits*p.cfg.PWrite*calls),
		row("cpu", "cpu.submit_finish_ns", c.cpuBursts),
		row("workload", next, 1),
		row("routing", decide, p.cfg.PLocal),
		row("comm", "comm.send_deliver_ns", c.msgs),
		// Per completion the metrics observer feeds two histograms.
		row("stats", "stats.hist_add_ns", 2),
	}
}

func printBudget(w io.Writer, workload string, rows []budgetRow, nsPerTxn float64) (sum float64) {
	fmt.Fprintf(w, "# layer budget for %s (sequential engine, %.0f ns per transaction)\n", workload, nsPerTxn)
	fmt.Fprintf(w, "# %-9s %-26s %10s %10s %10s %7s\n", "layer", "probe", "ns/op", "per txn", "ns/txn", "share")
	for _, r := range rows {
		sum += r.ns()
		fmt.Fprintf(w, "# %-9s %-26s %10.1f %10.3f %10.1f %6.1f%%\n", r.layer, r.probe, r.nsPerOp, r.perTxn, r.ns(), 100*r.ns()/nsPerTxn)
	}
	fmt.Fprintf(w, "# %-9s %-26s %10s %10s %10.1f %6.1f%%\n", "sum", "", "", "", sum, 100*sum/nsPerTxn)
	fmt.Fprintf(w, "# %-9s %-26s %10s %10s %10.1f %6.1f%%\n", "residual", "hybrid glue + unprobed", "", "", nsPerTxn-sum, 100*(nsPerTxn-sum)/nsPerTxn)
	return sum
}

// runSimTraced runs a sim-* workload at quarter length: once plain and
// sequential (the budget's whole), once sharded where the workload shards,
// once with the counting observer attached (the counts, and — against the
// plain run — the cost of observing), then the layer probes.
func runSimTraced(opt options, log io.Writer) (runResult, error) {
	p := simPlanFor(opt.workload, opt.seed, tracedSeconds(opt))
	rec := newRecorder(fmt.Sprintf("%s/seed=%d", opt.workload, opt.seed))
	root := rec.begin(opt.workload, -1)

	timed := func(spanName string, shards int, observer *countingObserver) (timedSim, error) {
		sp := rec.begin("setup", root)
		e, _, err := p.newEngine(shards)
		rec.end(sp)
		if err != nil {
			return timedSim{}, err
		}
		if observer != nil {
			e.Subscribe(observer)
		}
		sp = rec.begin(spanName, root)
		t := timeRun(e)
		rec.end(sp)
		return t, nil
	}
	// A short untimed run first: the process's first engine pays for heap
	// growth and cold caches, which would be booked to whichever timed run
	// came first and skew the observer-overhead ratio.
	warm := simPlanFor(opt.workload, opt.seed, tracedSeconds(opt)/10)
	if e, _, err := warm.newEngine(0); err == nil {
		sp := rec.begin("warmup", root)
		e.Run()
		rec.end(sp)
	}
	plain, err := timed("run-sequential", 0, nil)
	if err != nil {
		return runResult{}, err
	}
	var seqRes *hybrid.Result
	primary := plain
	var sharded timedSim
	if p.dual {
		if sharded, err = timed("run-sharded", 2, nil); err != nil {
			return runResult{}, err
		}
		if !sharded.parallel {
			return runResult{}, fmt.Errorf("%s: the sharded core did not engage", p.name)
		}
		primary, seqRes = sharded, &plain.res
	}
	observer := &countingObserver{}
	counted, err := timed("run-counted", 0, observer)
	if err != nil {
		return runResult{}, err
	}

	digests, err := loadDigests(opt.digests)
	if err != nil {
		return runResult{}, err
	}
	o := checkSim(p, primary.res, seqRes, digests, log)
	if digestOf(counted.res) != digestOf(plain.res) {
		o.failAll("attaching an observer changed the simulated result")
	}
	for _, msg := range o.problems {
		fmt.Fprintf(log, "FAIL %s: %s\n", p.name, msg)
	}

	counts := deriveSimCounts(observer, counted.res, p.cfg.CallsPerTxn)
	probes, err := runProbes(rec, root, probeConfig{quick: opt.quick, pWrite: p.cfg.PWrite, calls: p.cfg.CallsPerTxn})
	if err != nil {
		return runResult{}, err
	}
	rec.end(root)

	m := newMetricSet(perLayer)
	m.setAll(probes)
	nsPerTxn := 1e9 / plain.txnPerSecond()
	sum := printBudget(log, p.name, simBudget(p, counts, probes), nsPerTxn)
	m.set("hybrid.ns_per_txn", nsPerTxn)
	m.set("hybrid.budget_sum_ns", sum)
	m.set("hybrid.residual_ns", nsPerTxn-sum)
	m.set("hybrid.residual_share", (nsPerTxn-sum)/nsPerTxn)
	m.set("hybrid.exec_per_commit", counts.executions/counts.commits)
	m.set("hybrid.aborts_per_txn", counts.aborts)
	m.set("hybrid.auth_rounds_per_txn", counts.authRounds)
	m.set("hybrid.cold_fetches_per_txn", counts.coldFetches)
	m.set("hybrid.ship_fraction", plain.res.ShipFraction)
	m.set("sim.seq_txn_per_s", plain.txnPerSecond())
	if p.dual {
		m.set("sim.shard_speedup", sharded.txnPerSecond()/plain.txnPerSecond())
	}
	m.set("sim.events_per_txn", counts.kernelEvents+counts.cpuBursts+counts.msgs)
	m.set("lock.requests_per_txn", counts.lockRequests)
	m.set("lock.waits_per_txn", counts.lockWaits)
	if counts.lockRequests > 0 {
		m.set("lock.wait_share", counts.lockWaits/counts.lockRequests)
	}
	m.set("lock.seizes_per_txn", counts.seizes)
	m.set("lock.deadlocks_per_ktxn", counts.deadlocks*1e3)
	m.set("cpu.bursts_per_txn", counts.cpuBursts)
	m.set("comm.msgs_per_txn", counts.msgs)
	m.set("obs.detail_events_per_txn", counts.detailEvents)
	m.set("obs.counting_overhead_ratio", counted.wall/plain.wall)
	m.set("proc.cpu_us_per_txn", plain.cpu*1e6/float64(plain.res.Completed))

	if err := writeTrace(rec, opt); err != nil {
		return runResult{}, err
	}
	return runResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m.export()}, nil
}
