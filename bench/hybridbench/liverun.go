package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hybriddb/internal/cluster"
	"hybriddb/internal/netx"
)

// Generator validity limits. A run whose generator could not keep its own
// schedule measures the generator as much as the cluster. It is flagged with
// a WARN line, not failed: on the reference host about one run in thirty
// meets a stall of seconds (the hypervisor, not the program) that makes an
// idle pacer tens of milliseconds late, and the acceptance driver compares
// medians of ten runs — an outlier it absorbs, a failed run it does not.
const (
	maxLateP95Us    = 500.0
	minAchievedRate = 0.99
)

// generatorProblems checks that phase B was driven as scheduled.
func generatorProblems(o openStats) []string {
	var out []string
	if late := median(o.segLateP95); late > maxLateP95Us {
		out = append(out, fmt.Sprintf("generator ran late: p95 lateness %.0f us (median segment) exceeds %.0f us", late, maxLateP95Us))
	}
	if o.offered > 0 && o.achieved < minAchievedRate*o.offered {
		out = append(out, fmt.Sprintf("generator fell behind: sent %.1f/s of %.1f/s offered", o.achieved, o.offered))
	}
	return out
}

// tailPercentile returns the highest of p95/p99/p99.9 the sample supports
// (at least ten samples beyond it), and its value.
func tailPercentile(sorted []float64) (q, v float64) {
	q, ok := highestSupportedPercentile(len(sorted), []float64{0.95, 0.99, 0.999})
	if !ok {
		q = 0.95
	}
	return q, percentileSorted(sorted, q)
}

func reportLive(p livePlan, run *liveRun, log io.Writer) (ok bool) {
	ok = true
	for _, msg := range run.problems {
		fmt.Fprintf(log, "FAIL %s: %s\n", p.name, msg)
		ok = false
	}
	for _, msg := range generatorProblems(run.open) {
		fmt.Fprintf(log, "WARN %s: %s\n", p.name, msg)
	}
	if run.closed.completed == 0 || len(run.open.rtMs) == 0 {
		fmt.Fprintf(log, "FAIL %s: a phase completed no transactions\n", p.name)
		ok = false
	}
	q, v := tailPercentile(run.open.rtMs)
	fmt.Fprintf(log, "# %s phase A closed loop: %d completed in %.2f s, %d per connection outstanding, %.1f us CPU per txn; per segment %.0f txn/s\n",
		p.name, run.closed.completed, run.closed.seconds, p.outstanding,
		run.closed.cpu*1e6/float64(max(run.closed.completed, 1)), run.closed.txnPerSec)
	fmt.Fprintf(log, "# %s phase B per segment: p50 %.3f ms, p95 %.3f ms, mean %.3f ms, generator lateness p95 %.0f us\n",
		p.name, run.open.segP50, run.open.segP95, run.open.segMean, run.open.segLateP95)
	fmt.Fprintf(log, "# %s phase B open loop: %d scheduled at %.1f/s offered (%.1f/s sent), %d answered; highest supported percentile p%g = %.3f ms; generator lateness p50 %.0f p90 %.0f p95 %.0f p99 %.0f us, max %.2f ms\n",
		p.name, run.open.scheduled, run.open.offered, run.open.achieved, len(run.open.rtMs), q*100, v,
		percentileSorted(run.open.lateUs, 0.5), percentileSorted(run.open.lateUs, 0.9), percentileSorted(run.open.lateUs, 0.95),
		percentileSorted(run.open.lateUs, 0.99), percentileSorted(run.open.lateUs, 1)/1e3)
	return ok
}

// runLiveUntraced measures a live-* workload's end-to-end metrics.
func runLiveUntraced(opt options, log io.Writer) (runResult, error) {
	p := livePlanFor(opt.workload, opt.seed, opt.seconds)
	cycles := setupCycles
	if opt.quick {
		cycles = 1
	}
	run, err := driveLive(p, false, cycles, nil, -1)
	if err != nil {
		return runResult{}, err
	}
	ok := reportLive(p, run, log)

	m := newMetricSet(endToEnd)
	m.set("setup_s", median(run.setupSeconds))
	m.set("txn_per_s", median(run.closed.txnPerSec))
	if done := float64(run.closed.completed); done > 0 {
		m.set("allocs_per_txn", float64(run.closed.mallocs)/done)
	}
	m.set("peak_rss_mb", peakRSSMiB())
	m.set("rt_mean_ms", median(run.open.segMean))
	m.set("rt_p50_ms", median(run.open.segP50))
	m.set("rt_p95_ms", median(run.open.segP95))
	return liveResult(run, ok, m), nil
}

// liveResult assembles a live run's result line. A failed invariant that no
// single request accounts for fails the whole run.
func liveResult(run *liveRun, ok bool, m *metricSet) runResult {
	failed := run.failed
	if !ok && failed == 0 {
		failed = run.attempted
	}
	return runResult{Correct: ok, Attempted: max(run.attempted, 1), Failed: failed, Metrics: m.export()}
}

// delta returns after[k]-before[k].
func delta(after, before map[string]float64, k string) float64 { return after[k] - before[k] }

// liveLayerMetrics fills the cluster.* and load.* metrics of a traced run.
func liveLayerMetrics(m *metricSet, p livePlan, run *liveRun) {
	// Phase A: per-transaction wire counts from the nodes' transport stats.
	// The registries are read at the phase's edges (before priming and after
	// the drain), so the deltas cover every phase A transaction.
	phaseA := func(k string) float64 { return delta(run.afterClosed, run.before, k) }
	if admitted := phaseA("site_generated_total"); admitted > 0 {
		m.set("cluster.frames_per_txn", phaseA("net_frames_out")/admitted)
		m.set("cluster.bytes_per_txn", phaseA("net_bytes_out")/admitted)
		var aborts float64
		for _, k := range []string{
			`site_aborts_total{cause="seized"}`, `site_aborts_total{cause="deadlock"}`,
			`central_aborts_total{cause="nack"}`, `central_aborts_total{cause="invalidated"}`, `central_aborts_total{cause="deadlock"}`,
		} {
			aborts += phaseA(k)
		}
		m.set("cluster.aborts_per_txn", aborts/admitted)
		m.set("cluster.auth_rounds_per_txn", phaseA("central_auth_rounds_total")/admitted)
	}
	m.set("cluster.send_queue_depth_max", run.queueDepthMax)
	m.set("cluster.queue_full_kills", run.afterOpen["net_queue_full_kills"])
	if run.frames > 0 {
		m.set("netx.writes_per_frame", float64(run.writes)/float64(run.frames))
	}
	// Phase B: routing mix and fidelity against the simulator.
	if routed := run.open.localA + run.open.shippedA; routed > 0 {
		ship := float64(run.open.shippedA) / float64(routed)
		m.set("cluster.ship_fraction", ship)
		if run.pred.Replications > 0 {
			tol, err := cluster.DefaultTolerances()
			if err == nil {
				d := cluster.ComputeDrift(run.open.meanRtMs/1e3, ship, run.pred, tol)
				m.set("cluster.ship_frac_abs_err", d.ShipFracAbsErr)
				m.set("cluster.rt_rel_err", d.RTRelErr)
			}
			m.set("cluster.sim_pred_rt_ms", run.pred.MeanRT*1e3)
		}
	}
	conservation := 1.0
	if len(run.problems) > 0 {
		conservation = 0
	}
	m.set("cluster.conservation_ok", conservation)
	m.set("load.offered_txn_per_s", run.open.offered)
	m.set("load.late_p99_us", percentileSorted(run.open.lateUs, 0.99))
	m.set("load.late_max_ms", percentileSorted(run.open.lateUs, 1)/1e3)
	m.set("load.rt_p99_ms", percentileSorted(run.open.rtMs, 0.99))
	m.set("load.rt_p999_ms", percentileSorted(run.open.rtMs, 0.999))
}

// measuredMix returns each wire message type's share of the frames the
// cluster exchanged between two registry readings. Frames between nodes are
// counted where they arrive; results go to the generator, which is no node,
// so they are counted where they leave.
func measuredMix(after, before map[string]float64) map[byte]float64 {
	mix := make(map[byte]float64)
	var total float64
	for t := netx.MsgSubmit; t <= netx.MsgReply; t++ {
		dir := "wire_msgs_in_total"
		if t == netx.MsgResult {
			dir = "wire_msgs_out_total"
		}
		n := delta(after, before, fmt.Sprintf("%s{type=%q}", dir, netx.MsgName(t)))
		mix[t] = n
		total += n
	}
	if total == 0 {
		return nil
	}
	for t := range mix {
		mix[t] /= total
	}
	return mix
}

func formatMix(mix map[byte]float64) string {
	var b strings.Builder
	for t := netx.MsgSubmit; t <= netx.MsgReply; t++ {
		fmt.Fprintf(&b, "%s %.4f  ", netx.MsgName(t), mix[t])
	}
	return strings.TrimSpace(b.String())
}

// maxRequestSpans bounds the per-request spans written per phase, so that
// trace.json stays a file a viewer can open.
const maxRequestSpans = 5000

// exportRequestSpans records one span per request (due -> sent -> reply)
// under its phase's span.
func exportRequestSpans(rec *recorder, g *generator, w window, name string, parent int) {
	shift := int64(g.epoch.Sub(rec.epoch)) // generator clock -> recorder clock
	n := 0
	for i, gc := range g.conns {
		for k := w.from[i]; k < w.to[i] && n < maxRequestSpans; k++ {
			if gc.flags[k]&flagReplied == 0 {
				continue
			}
			rec.add(span{Name: name, Start: gc.due[k] + shift, Mid: gc.sent[k] + shift, End: gc.done[k] + shift, Parent: parent, Request: true})
			n++
		}
	}
}

// runLiveTraced runs a live-* workload at quarter length twice — untraced,
// then with the span recorder, the counting connections and the registry
// samples attached — then the layer probes, and reports the per-layer
// metrics. The ratio of the two runs' closed-loop throughput is the tracing
// overhead.
func runLiveTraced(opt options, log io.Writer) (runResult, error) {
	p := livePlanFor(opt.workload, opt.seed, tracedSeconds(opt))
	rec := newRecorder(fmt.Sprintf("%s/seed=%d", opt.workload, opt.seed))
	root := rec.begin(opt.workload, -1)

	plain, err := driveLive(p, false, 1, nil, -1)
	if err != nil {
		return runResult{}, err
	}
	run, err := driveLive(p, true, 1, rec, root)
	if err != nil {
		return runResult{}, err
	}
	ok := reportLive(p, run, log)
	exportRequestSpans(rec, run.gen, run.closedWindow, "request-closed", run.closedSpan)
	exportRequestSpans(rec, run.gen, run.openWindow, "request-open", run.openSpan)
	if !p.predictInSetup {
		// live-wire keeps the prediction out of its set-up time; the traced
		// run still wants it, for the distance between the program and the
		// ideal (zero-overhead) emulation of the same configuration.
		if run.pred, err = predict(p); err != nil {
			return runResult{}, err
		}
	}

	mix := measuredMix(run.afterOpen, run.before)
	fmt.Fprintf(log, "# %s message mix (share of frames): %s\n", p.name, formatMix(mix))
	probes, err := runProbes(rec, root, probeConfig{quick: opt.quick, pWrite: p.cfg.PWrite, calls: p.cfg.CallsPerTxn, mix: mix})
	if err != nil {
		return runResult{}, err
	}
	rec.end(root)
	m := newMetricSet(perLayer)
	m.setAll(probes)
	liveLayerMetrics(m, p, run) // after the probes: the run's own writes-per-frame wins
	if plain.closed.completed > 0 && run.closed.completed > 0 {
		m.set("load.trace_overhead_ratio",
			median(plain.closed.txnPerSec)/median(run.closed.txnPerSec))
		// From the untraced twin, over the whole of phase A: a stall adds
		// no CPU time, and the kernel charges CPU by sampling at its tick,
		// too coarse for one segment of a mostly idle process.
		m.set("proc.cpu_us_per_txn", plain.closed.cpu*1e6/float64(plain.closed.completed))
	}

	// Reconciliation: a transaction's response time is a chain of about 22
	// timers, so timer lateness should account for what the live cluster
	// adds to the simulator's prediction.
	const timersPerTxn = 22
	gap := run.open.meanRtMs - run.pred.MeanRT*1e3
	fmt.Fprintf(log, "# %s reconciliation: live mean RT %.3f ms - simulator %.3f ms = %.3f ms; %d timers x exec.timer_late_p50 %.1f us = %.3f ms (x busy p50 %.1f us = %.3f ms)\n",
		p.name, run.open.meanRtMs, run.pred.MeanRT*1e3, gap,
		timersPerTxn, m.get("exec.timer_late_p50_us"), timersPerTxn*m.get("exec.timer_late_p50_us")/1e3,
		m.get("exec.timer_late_busy_p50_us"), timersPerTxn*m.get("exec.timer_late_busy_p50_us")/1e3)

	if err := writeTrace(rec, opt); err != nil {
		return runResult{}, err
	}
	return liveResult(run, ok, m), nil
}

// writeTrace stores the recorder's spans as out/<workload>/trace.json.
func writeTrace(rec *recorder, opt options) error {
	dir := filepath.Join(opt.outDir, opt.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
