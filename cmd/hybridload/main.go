// Command hybridload drives an open-loop paced workload against a live
// hybridd cluster and reports measured response times and routing mix.
// Arrivals are submitted at the configured rate regardless of completions
// (open loop), so queueing shows up as response time — the same offered-load
// discipline as the simulator's Poisson arrival process.
//
// Example against a two-site cluster (see cmd/hybridd for booting one):
//
//	hybridload -addrs 127.0.0.1:4100,127.0.0.1:4101 -sites 2 \
//	    -rate 8 -warmup 1 -duration 10 -manifest RUN_live.json
//
// The configuration flags must match the cluster's: the load generator
// draws the transaction specs (class, home site, lock elements) itself and
// ships them fully formed, so a -sites or -plocal mismatch changes the
// workload the cluster observes.
//
// With -drift the simulator first predicts the operating point for the
// same configuration and -strategy; while the load runs, a stderr ticker
// compares the measured mean RT and routing mix against the prediction
// using the differential test's tolerance bands, and the drift is exposed
// as gauges on -debug-addr's /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hybriddb/internal/cluster"
	"hybriddb/internal/experiments"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/obsx/logx"
	"hybriddb/internal/obsx/manifest"
	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/routing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hybridload", flag.ContinueOnError)
	var (
		addrsFlg  = fs.String("addrs", "", "comma-separated site addresses, in site-index order (required)")
		pacing    = fs.String("pacing", cluster.PacingPoisson, "interarrival pacing: poisson or uniform")
		ramp      = fs.Float64("ramp", 0, "seconds over which the rate rises linearly from 0 to -rate")
		warmup    = fs.Float64("warmup", 1, "seconds of load before the measurement window opens")
		duration  = fs.Float64("duration", 10, "measured seconds")
		threads   = fs.Int("threads", 2, "connections per site")
		loadSeed  = fs.Uint64("load-seed", 0, "workload/pacing seed (default: the configuration -seed)")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request timeout; a timeout counts as an error")
		maniOut   = fs.String("manifest", "", "write a machine-readable run manifest (RUN_*.json) to this file")
		notes     = fs.String("label", "live", "result label used in the manifest")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		drift     = fs.Bool("drift", false, "predict the operating point with the simulator and report live drift")
		strategy  = fs.String("strategy", "threshold:0", "the cluster's routing strategy, for the -drift prediction: "+strings.Join(experiments.StrategyNames(), ", "))
		tick      = fs.Duration("tick", 2*time.Second, "progress/drift ticker interval")
	)
	cf := cluster.RegisterConfigFlags(fs)
	applyLog := logx.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	applyLog()
	cfg, err := cf.Config()
	if err != nil {
		return err
	}
	if *addrsFlg == "" {
		return fmt.Errorf("missing -addrs (comma-separated site addresses)")
	}
	addrs := strings.Split(*addrsFlg, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	seed := *loadSeed
	if seed == 0 {
		seed = cfg.Seed
	}

	lg := logx.New("load")
	reg := metrics.NewRegistry()
	fr := flight.NewRecorder("hybridload", 256)
	flight.InstallSigquit(os.Stderr, fr)
	if *debugAddr != "" {
		bound, err := metrics.StartDebugServer(*debugAddr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "hybridload: debug listener on http://%s/metrics\n", bound)
	}
	submittedG := reg.Gauge("load_submitted", "submissions in the measurement window so far")
	completedG := reg.Gauge("load_completed", "completions in the measurement window so far")
	errorsG := reg.Gauge("load_errors", "request timeouts and transport failures so far")
	measuredRT := reg.Gauge("load_measured_mean_rt_seconds", "measured mean response time, window so far")
	measuredShip := reg.Gauge("load_measured_ship_fraction", "measured class A ship fraction, window so far")

	// With -drift, predict the operating point before offering load, then
	// hold the live window against the prediction under the differential
	// test's tolerance bands.
	var (
		pred cluster.SimPrediction
		tol  cluster.Tolerances

		predRT    *metrics.Gauge
		predShip  *metrics.Gauge
		driftRT   *metrics.Gauge
		driftShip *metrics.Gauge
		withinG   *metrics.Gauge
	)
	if *drift {
		if tol, err = cluster.DefaultTolerances(); err != nil {
			return err
		}
		maker, err := experiments.ParseStrategy(*strategy)
		if err != nil {
			return err
		}
		simStart := time.Now()
		pred, err = cluster.PredictSim(cfg, func() (routing.Strategy, error) {
			return maker.Make(cfg)
		}, tol.SimReplications)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "hybridload: sim predicts meanRT %.1fms, ship fraction %.3f (%d replications, %.1fs); "+
			"bands: rt rel err ≤ %.2f, ship abs err ≤ %.2f\n",
			pred.MeanRT*1e3, pred.ShipFraction, pred.Replications, time.Since(simStart).Seconds(),
			tol.RTRelErrMax, tol.ShipFracAbsErrMax)
		predRT = reg.Gauge("load_predicted_mean_rt_seconds", "simulator-predicted mean response time for this configuration")
		predShip = reg.Gauge("load_predicted_ship_fraction", "simulator-predicted class A ship fraction")
		driftRT = reg.Gauge("load_drift_rt_rel_err", "relative mean-RT error of the live window vs the simulator prediction")
		driftShip = reg.Gauge("load_drift_ship_frac_abs_err", "absolute ship-fraction error vs the simulator prediction")
		withinG = reg.Gauge("load_drift_within_bands", "1 when the live window agrees with the simulator within the tolerance bands")
		predRT.Set(pred.MeanRT)
		predShip.Set(pred.ShipFraction)
		withinG.Set(1)
	}

	progress := func(p cluster.LoadProgress) {
		submittedG.Set(float64(p.Submitted))
		completedG.Set(float64(p.Completed))
		errorsG.Set(float64(p.Errors))
		measuredRT.Set(p.MeanRT)
		measuredShip.Set(p.ShipFraction)
		line := fmt.Sprintf("t=%.1fs submitted %d completed %d errors %d meanRT %.1fms ship %.3f",
			p.Elapsed, p.Submitted, p.Completed, p.Errors, p.MeanRT*1e3, p.ShipFraction)
		if *drift && p.Completed > 0 {
			d := cluster.ComputeDrift(p.MeanRT, p.ShipFraction, pred, tol)
			driftRT.Set(d.RTRelErr)
			driftShip.Set(d.ShipFracAbsErr)
			verdict := "within bands"
			if d.WithinBands {
				withinG.Set(1)
			} else {
				withinG.Set(0)
				verdict = "OUT OF BANDS"
			}
			line += fmt.Sprintf(" | drift: rt %.3f/%.2f ship %.3f/%.2f (%s)",
				d.RTRelErr, tol.RTRelErrMax, d.ShipFracAbsErr, tol.ShipFracAbsErrMax, verdict)
		}
		lg.Infof("%s", line)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	wallStart := time.Now()
	res, err := cluster.RunLoad(ctx, addrs, cfg, cluster.LoadOptions{
		Rate:           cfg.ArrivalRatePerSite,
		Pacing:         *pacing,
		Ramp:           *ramp,
		Warmup:         *warmup,
		Duration:       *duration,
		Threads:        *threads,
		Seed:           seed,
		RequestTimeout: *timeout,
		Progress:       progress,
		ProgressEvery:  *tick,
		Flight:         fr,
	})
	if res == nil {
		return err
	}
	if err != nil {
		// Cancellation still reports the partial window below.
		fmt.Fprintf(out, "hybridload: run ended early: %v\n", err)
	}

	fmt.Fprintf(out, "hybridload: %d submitted, %d completed, %d errors over %.1fs window (%.1fs wall)\n",
		res.Submitted, res.Completed, res.Errors, *duration, res.Elapsed)
	fmt.Fprintf(out, "  routing: %d local A, %d shipped A, %d class B (ship fraction %.3f)\n",
		res.LocalA, res.ShippedA, res.ClassB, res.ShipFraction)
	fmt.Fprintf(out, "  RT mean %.1fms, p50 %.1fms, p95 %.1fms; throughput %.1f txn/s\n",
		res.MeanRT*1e3, res.P50RT*1e3, res.P95RT*1e3, res.Throughput)
	if *drift && res.Completed > 0 {
		d := cluster.ComputeDrift(res.MeanRT, res.ShipFraction, pred, tol)
		verdict := "within bands"
		if !d.WithinBands {
			verdict = "OUT OF BANDS"
		}
		fmt.Fprintf(out, "  drift vs simulator: rt rel err %.3f (≤ %.2f), ship abs err %.3f (≤ %.2f) — %s\n",
			d.RTRelErr, tol.RTRelErrMax, d.ShipFracAbsErr, tol.ShipFracAbsErrMax, verdict)
	}

	if *maniOut != "" {
		m := manifest.New("hybridload", "live cluster paced load run")
		m.Add(*notes, cfg, liveResult(res, *duration))
		m.AttachMetrics(reg.Snapshot())
		m.Finish(time.Since(wallStart))
		if werr := m.WriteFile(*maniOut); werr != nil {
			return werr
		}
		fmt.Fprintf(out, "  manifest written to %s\n", *maniOut)
	}
	if err != nil {
		return err
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d request errors (timeouts or transport failures)", res.Errors)
	}
	return nil
}

// liveResult maps a measured load window onto the simulator's Result shape
// so live runs share the manifest schema (and downstream tooling) with
// simulation runs. Fields the live measurement cannot observe (per-class
// RT splits, central-node internals) stay zero.
func liveResult(res *cluster.LoadResult, window float64) hybrid.Result {
	return hybrid.Result{
		Strategy:          "live",
		Window:            window,
		CompletedLocalA:   res.LocalA,
		CompletedShippedA: res.ShippedA,
		CompletedClassB:   res.ClassB,
		MeanRT:            res.MeanRT,
		P95RT:             res.P95RT,
		Throughput:        res.Throughput,
		ShipFraction:      res.ShipFraction,
	}
}
