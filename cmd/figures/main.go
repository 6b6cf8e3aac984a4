// Command figures regenerates the tables behind every figure of the paper's
// evaluation section (Figures 4.1–4.7), plus the maximum-supportable-
// throughput summary.
//
// Examples:
//
//	figures                 # every figure, full-length runs
//	figures -fig 4.2        # one figure
//	figures -quick          # shorter runs for a fast look
//	figures -csv out.csv    # machine-readable long-form output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"hybriddb/internal/altarch"
	"hybriddb/internal/experiments"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/obsx/manifest"
	"hybriddb/internal/obsx/progress"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", `figure to regenerate: 4.1 ... 4.7, "max", "arch", or "all"`)
		quick    = fs.Bool("quick", false, "shorter simulations (less precise, much faster)")
		plotFlg  = fs.Bool("plot", false, "render ASCII charts alongside the tables")
		seed     = fs.Uint64("seed", 1, "random seed")
		csvPath  = fs.String("csv", "", "also write long-form CSV to this file")
		reps     = fs.Int("reps", 1, "independent replications per sweep point (>1 adds 95% confidence half-widths)")
		parallel = fs.Int("parallel", 0, "worker goroutines for the sweep (0 = GOMAXPROCS); affects speed only, never results")
		progFlg  = fs.Bool("progress", false, "print sweep progress with an ETA to stderr")
		maniOut  = fs.String("manifest", "", "write a machine-readable manifest of every run (RUN_*.json) to this file")
		dbgAddr  = fs.String("debug-addr", "", "serve expvar and pprof on this address for the sweep's duration")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("-reps %d: need at least one replication", *reps)
	}

	base := hybrid.DefaultConfig()
	base.Seed = *seed
	opt := experiments.Options{Base: base, Replications: *reps, Parallelism: *parallel}
	if *quick {
		opt.Base.Warmup, opt.Base.Duration = 50, 200
		opt.RatesPerSite = []float64{1.0, 2.0, 2.8, 3.4}
	}
	if *progFlg {
		opt.Progress = progress.NewTicker(os.Stderr, time.Second).Callback
	}
	start := time.Now()
	if *maniOut != "" {
		opt.Base.CaptureHistograms = true
		opt.Manifest = manifest.New("figures", "figure sweep: "+*fig)
	}
	if *dbgAddr != "" {
		addr, err := progress.StartDebugServer(*dbgAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "figures: debug server on http://%s/debug/pprof (expvar at /debug/vars)\n", addr)
	}
	defer func() {
		if opt.Manifest == nil {
			return
		}
		opt.Manifest.Finish(time.Since(start))
		if err := opt.Manifest.WriteFile(*maniOut); err != nil {
			fmt.Fprintln(os.Stderr, "figures: manifest:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "figures: wrote %d runs to %s\n", len(opt.Manifest.Runs), *maniOut)
	}()

	var exps []experiments.Experiment
	switch *fig {
	case "max":
		return writeMaxThroughput(out, opt)
	case "arch":
		return writeArchitectures(out, opt)
	case "all":
		exps = experiments.Figures
	default:
		e, ok := experiments.Lookup(*fig)
		if !ok {
			return fmt.Errorf("unknown figure %q", *fig)
		}
		exps = []experiments.Experiment{e}
	}
	var figures []experiments.Figure
	for _, e := range exps {
		f, err := e.Run(opt)
		if err != nil {
			return err
		}
		figures = append(figures, f)
	}

	for _, f := range figures {
		if err := f.WriteTable(out); err != nil {
			return err
		}
		if *plotFlg {
			if err := f.WritePlot(out); err != nil {
				return err
			}
		}
	}
	if *csvPath != "" {
		file, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer file.Close()
		for _, f := range figures {
			if err := f.WriteCSV(file); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeArchitectures regenerates the introduction's three-architecture
// comparison (§1): centralized vs distributed vs hybrid across locality.
func writeArchitectures(out io.Writer, opt experiments.Options) error {
	cfg := opt.Base
	cfg.ArrivalRatePerSite = 1.0
	points, err := altarch.LocalitySweep(cfg, []float64{0.5, 0.75, 0.9, 1.0}, altarch.DefaultLockTimeout)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Architecture comparison (§1) — mean response time (s)")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "p_local\tremote calls/txn\tcentralized\tdistributed\thybrid(best)")
	for _, p := range points {
		fmt.Fprintf(tw, "%.2f\t%.2f\t%.3f\t%.3f\t%.3f\n",
			p.PLocal, p.Distributed.RemoteCallsPerTxn,
			p.Centralized.MeanRT, p.Distributed.MeanRT, p.Hybrid.MeanRT)
	}
	return tw.Flush()
}

func writeMaxThroughput(out io.Writer, opt experiments.Options) error {
	const cutoff = 4.0 // seconds; the knee criterion for "supportable"
	fig, err := experiments.Supportable.Run(opt)
	if err != nil {
		return err
	}
	rows, err := experiments.MaxThroughput(fig, cutoff)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Maximum supportable throughput (mean RT < %.1f s)\n", cutoff)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tmax tps\tRT at max")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.3f\n", r.Strategy, r.MaxTPS, r.RTAtMax)
	}
	return tw.Flush()
}
