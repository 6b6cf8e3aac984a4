// Command hybridsim runs one simulation of the hybrid distributed–
// centralized database system and prints the measured result.
//
// Example:
//
//	hybridsim -rate 2.5 -strategy best -delay 0.2 -duration 800
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"hybriddb/internal/experiments"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/obsx/manifest"
	"hybriddb/internal/obsx/progress"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/replicate"
	"hybriddb/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hybridsim", flag.ContinueOnError)
	var (
		preset   = fs.String("preset", "", "named configuration preset: "+strings.Join(presetNames(), ", ")+"; explicit flags override preset values")
		rate     = fs.Float64("rate", 1.0, "arrival rate per site (txn/s)")
		delay    = fs.Float64("delay", 0.2, "one-way communications delay (s)")
		sites    = fs.Int("sites", 10, "number of local sites")
		strategy = fs.String("strategy", "best", "routing strategy: "+strings.Join(experiments.StrategyNames(), ", "))
		seed     = fs.Uint64("seed", 1, "random seed")
		warmup   = fs.Float64("warmup", 200, "warmup period discarded from statistics (s)")
		duration = fs.Float64("duration", 800, "measured simulated duration (s)")
		pwrite   = fs.Float64("pwrite", 0.25, "probability a lock request is exclusive")
		plocal   = fs.Float64("plocal", 0.75, "fraction of class A (local-data) transactions")
		feedback = fs.String("feedback", "auth-only", "central-state feedback: auth-only, all-messages, ideal")
		skew     = fs.Float64("skew", 0, "Zipf exponent of the lock-reference distribution (0 = uniform)")
		hotFrac  = fs.Float64("hot-fraction", 1, "fraction of each partition replicated at central (1 = full replication)")
		coldF    = fs.Float64("cold-fetch", 0, "seconds a central execution waits to fetch a cold element (first run only)")
		epoch    = fs.Float64("epoch", 0, "epoch length for batched update propagation, seconds (0 = per-commit async)")
		check    = fs.Bool("selfcheck", false, "run simulator invariant checks (slower)")
		shards   = fs.Int("shards", 0, "event-queue shards for the parallel core (0/1 = sequential); results are bit-identical either way")
		parallel = fs.Int("parallel", 0, "worker goroutines for replications (0 = GOMAXPROCS); affects speed only, never results")
		cpuprof  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof  = fs.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
		spansOut = fs.String("spans", "", "write a Chrome trace-event span file of the run (open in Perfetto); single runs only")
		maniOut  = fs.String("manifest", "", "write a machine-readable run manifest (RUN_*.json) to this file")
		progFlg  = fs.Bool("progress", false, "print replication progress to stderr")
		dbgAddr  = fs.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060) for the run's duration")
	)
	var reps int
	fs.IntVar(&reps, "replications", 1, "independent replications (>1 adds confidence intervals)")
	fs.IntVar(&reps, "reps", 1, "shorthand for -replications")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := hybrid.DefaultConfig()
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *preset != "" {
		p, err := applyPreset(*preset, &cfg)
		if err != nil {
			return err
		}
		// Preset values yield to explicitly passed flags below; flags the
		// user did not pass keep the preset's choices instead of their
		// defaults.
		if !set["rate"] {
			*rate = cfg.ArrivalRatePerSite
		}
		if !set["delay"] {
			*delay = cfg.CommDelay
		}
		if !set["sites"] {
			*sites = cfg.Sites
		}
		if !set["warmup"] {
			*warmup = cfg.Warmup
		}
		if !set["duration"] {
			*duration = cfg.Duration
		}
		if !set["shards"] {
			*shards = p.shards
		}
	}
	cfg.ArrivalRatePerSite = *rate
	cfg.CommDelay = *delay
	cfg.Sites = *sites
	cfg.Seed = *seed
	cfg.Warmup = *warmup
	cfg.Duration = *duration
	cfg.PWrite = *pwrite
	cfg.PLocal = *plocal
	cfg.SkewTheta = *skew
	cfg.CentralHotFraction = *hotFrac
	cfg.ColdFetchDelay = *coldF
	cfg.EpochLength = *epoch
	cfg.SelfCheck = *check
	if *shards < 0 {
		return fmt.Errorf("-shards must be non-negative (0 or 1 runs sequentially), got %d", *shards)
	}
	cfg.Shards = *shards
	fb, err := hybrid.ParseFeedback(*feedback)
	if err != nil {
		return err
	}
	cfg.Feedback = fb

	if *maniOut != "" {
		// Manifests carry full histogram dumps, so ask the engine to keep them.
		cfg.CaptureHistograms = true
	}

	maker, err := experiments.ParseStrategy(*strategy)
	if err != nil {
		return err
	}

	if *dbgAddr != "" {
		addr, err := progress.StartDebugServer(*dbgAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hybridsim: debug server on http://%s/debug/pprof (expvar at /debug/vars)\n", addr)
	}

	// Profiling hooks: hot-path regressions in the event kernel, lock
	// manager, or lifecycle layers are diagnosed with pprof on a real run
	// rather than by editing benchmark code.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			// An explicit GC makes the heap profile reflect live steady-state
			// structures (pools, heaps, tables) instead of collectible garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hybridsim: memprofile:", err)
			}
			f.Close()
		}()
	}

	start := time.Now()
	if reps > 1 {
		if *spansOut != "" {
			return fmt.Errorf("-spans records a single run; drop -replications")
		}
		if _, why := cfg.EffectiveShards(); why != "" {
			fmt.Fprintf(os.Stderr, "hybridsim: note: -shards %d ignored, running sequentially: %s\n", *shards, why)
		}
		// Ctrl-C / SIGTERM stops dispatching further replications; the ones
		// in flight finish, and everything measured so far is still
		// reported and flushed to the manifest.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		popt := runner.Options{Parallelism: *parallel, Context: ctx}
		if *progFlg {
			popt.Progress = progress.NewTicker(os.Stderr, time.Second).Callback
		}
		points := replicate.Points(cfg, reps)
		summary, err := replicate.RunOpts(points, maker, popt)
		if err != nil && summary.Replications == 0 {
			return err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybridsim: interrupted (%v); reporting the %d of %d replications that completed\n",
				err, summary.Replications, reps)
		}
		if *maniOut != "" {
			m := manifest.New("hybridsim", fmt.Sprintf("%s, %d replications", *strategy, summary.Replications))
			for i, r := range summary.Results {
				if r.Window <= 0 {
					continue // replication cancelled before it started
				}
				m.Add(points[i].Name, points[i].Cfg, r)
			}
			m.Finish(time.Since(start))
			if err := m.WriteFile(*maniOut); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "hybridsim: wrote run manifest to %s\n", *maniOut)
		}
		for _, r := range summary.Results {
			if r.Window > 0 {
				warnClipped(r)
			}
		}
		if werr := writeReplication(out, summary); werr != nil {
			return werr
		}
		return err
	}
	strat, err := maker.Make(cfg)
	if err != nil {
		return err
	}
	engine, err := hybrid.New(cfg, strat)
	if err != nil {
		return err
	}
	var collector *spans.Collector
	if *spansOut != "" {
		collector = spans.NewCollector(cfg.Sites)
		engine.Subscribe(collector)
	}
	r := engine.Run()
	if *shards > 1 && !engine.Parallel() {
		_, reason := cfg.EffectiveShards()
		if reason == "" {
			reason = "an external observer is attached (-spans needs the single ordered event stream)"
		}
		fmt.Fprintf(os.Stderr, "hybridsim: note: -shards %d ignored, ran sequentially: %s\n", *shards, reason)
	}
	if collector != nil {
		if err := collector.WriteFile(*spansOut); err != nil {
			return err
		}
		if n := collector.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "hybridsim: span buffer full; %d transaction arrivals not traced, a shipped transaction counting at each tier (shorten -duration)\n", n)
		}
		fmt.Fprintf(os.Stderr, "hybridsim: wrote %d span events to %s (open in Perfetto: https://ui.perfetto.dev)\n", collector.Events(), *spansOut)
	}
	if *maniOut != "" {
		m := manifest.New("hybridsim", *strategy)
		m.Add("single", cfg, r)
		m.Finish(time.Since(start))
		if err := m.WriteFile(*maniOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hybridsim: wrote run manifest to %s\n", *maniOut)
	}
	warnClipped(r)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintf(tw, "strategy\t%s\n", r.Strategy)
	fmt.Fprintf(tw, "offered load\t%.1f tps total (%.2f/site x %d sites)\n",
		*rate*float64(*sites), *rate, *sites)
	fmt.Fprintf(tw, "throughput\t%.2f tps\n", r.Throughput)
	fmt.Fprintf(tw, "mean response time\t%.3f s (p95 %.3f s)\n", r.MeanRT, r.P95RT)
	fmt.Fprintf(tw, "  percentiles\tp50 %.3f, p90 %.3f, p95 %.3f, p99 %.3f s\n",
		r.RTPercentiles.P50, r.RTPercentiles.P90, r.RTPercentiles.P95, r.RTPercentiles.P99)
	fmt.Fprintf(tw, "  class A local\t%.3f s (%d txns)\n", r.MeanRTLocalA, r.CompletedLocalA)
	fmt.Fprintf(tw, "  class A shipped\t%.3f s (%d txns)\n", r.MeanRTShippedA, r.CompletedShippedA)
	fmt.Fprintf(tw, "  class B\t%.3f s (%d txns)\n", r.MeanRTClassB, r.CompletedClassB)
	fmt.Fprintf(tw, "ship fraction\t%.3f of class A\n", r.ShipFraction)
	fmt.Fprintf(tw, "utilization\tlocal mean %.2f (max %.2f), central %.2f\n",
		r.UtilLocalMean, r.UtilLocalMax, r.UtilCentral)
	fmt.Fprintf(tw, "aborts\tdeadlock %d/%d, seized %d, NACK %d, invalidated %d\n",
		r.AbortsDeadlockLocal, r.AbortsDeadlockCentral,
		r.AbortsLocalSeized, r.AbortsCentralNACK, r.AbortsCentralInval)
	fmt.Fprintf(tw, "mean lock wait\t%.4f s\n", r.MeanLockWait)
	fmt.Fprintf(tw, "network messages\t%d (auth rounds %d)\n", r.MessagesSent, r.AuthRounds)
	return nil
}

// presetExtras carries preset choices that live outside hybrid.Config.
type presetExtras struct {
	shards int // default for -shards when the flag is not passed
}

func presetNames() []string { return []string{"scale1000"} }

// applyPreset overwrites cfg with a named preset's values. Flags the user
// passed explicitly still win — run() re-applies them after the preset.
func applyPreset(name string, cfg *hybrid.Config) (presetExtras, error) {
	switch name {
	case "scale1000":
		// The paper's §4.1 system scaled 100x: 1000 local sites with the
		// shared hardware grown in proportion — central CPU 15 -> 1500 MIPS,
		// lockspace 32,768 -> 3,276,800 elements — and every per-site
		// parameter unchanged, so each site sees the paper's workload. The
		// horizon is sized for a ~10^7-transaction run (1000 sites x 1
		// txn/s x 10,000 simulated seconds); shorten it with -duration for
		// a quick look. Shards default to GOMAXPROCS: the sweet spot is
		// one worker per core, not one per site.
		cfg.Sites = 1000
		cfg.CentralMIPS = 1500
		cfg.Lockspace = 3_276_800
		cfg.Warmup = 200
		cfg.Duration = 9800
		return presetExtras{shards: runtime.GOMAXPROCS(0)}, nil
	}
	return presetExtras{}, fmt.Errorf("unknown preset %q (presets: %s)", name, strings.Join(presetNames(), ", "))
}

// warnClipped flags histogram overflow: observations above the bucketed
// range are clamped to the ceiling, so upper percentiles are underestimates
// and the run's numbers should not be quoted without this caveat.
func warnClipped(r hybrid.Result) {
	if r.ClipAll.Over == 0 {
		return
	}
	completed := r.CompletedLocalA + r.CompletedShippedA + r.CompletedClassB
	fmt.Fprintf(os.Stderr,
		"hybridsim: warning: %s: %d of %d response times exceeded the histogram range; p95/p99 are underestimates\n",
		r.Strategy, r.ClipAll.Over, completed)
}

// writeReplication renders a replication summary with confidence intervals.
func writeReplication(w io.Writer, s replicate.Summary) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "strategy\t%s (%d replications)\n", s.Strategy, s.Replications)
	fmt.Fprintf(tw, "mean response time\t%s s\n", s.MeanRT)
	fmt.Fprintf(tw, "throughput\t%s tps\n", s.Throughput)
	fmt.Fprintf(tw, "ship fraction\t%s\n", s.ShipFraction)
	fmt.Fprintf(tw, "abort rate\t%s per txn\n", s.AbortRate)
	fmt.Fprintf(tw, "utilization\tlocal %s, central %s\n", s.UtilLocal, s.UtilCentral)
	return tw.Flush()
}
