// Command trace works with recorded workloads and protocol event traces:
//
//	trace capture -out trace.jsonl -rate 2.0 -count 10000   # record a workload
//	trace replay  -in trace.jsonl -strategy best            # re-run it
//	trace follow  -txn 42 -rate 2.0 -strategy best          # dump one txn's protocol events
//	trace export  -out spans.json -rate 2.0 -strategy best  # Chrome trace-event spans
//	trace merge   -out merged.json central.json site0.json  # fuse per-process cluster traces
//
// Replay makes simulation results bit-reproducible across machines and code
// versions; follow prints the full §2 protocol history of one transaction
// (routing, locks, authentication, aborts) for debugging; export renders
// every transaction's lifecycle as a span tree loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing; merge fuses the
// per-process span files a live cluster writes (hybridd -spans) into
// one Perfetto-loadable view, shifting each file by its handshake-estimated
// clock offset so cross-site transactions read as a single span tree.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"hybriddb/internal/experiments"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/trace"
	"hybriddb/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: trace capture|replay|follow|export|merge [flags]")
	}
	switch args[0] {
	case "capture":
		return capture(args[1:], out)
	case "replay":
		return replay(args[1:], out)
	case "follow":
		return follow(args[1:], out)
	case "export":
		return export(args[1:], out)
	case "merge":
		return merge(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want capture, replay, follow, export, or merge)", args[0])
	}
}

// merge fuses per-process span files from a live cluster run into a single
// trace, shifting each input into the central timebase by the clock offset
// its process estimated at the Hello handshake.
func merge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace merge", flag.ContinueOnError)
	path := fs.String("out", "merged.json", "output trace-event file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inputs := fs.Args()
	if len(inputs) == 0 {
		return fmt.Errorf("usage: trace merge [-out merged.json] <span-file>...")
	}
	info, err := spans.MergeToFile(*path, inputs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "merged %d files into %s: %d events across %d process lanes, %d cross-process transactions (open in Perfetto: https://ui.perfetto.dev)\n",
		info.Files, *path, info.Events, info.Processes, info.CrossProcessTxns)
	return nil
}

func capture(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace capture", flag.ContinueOnError)
	var (
		path  = fs.String("out", "trace.jsonl", "output trace file")
		rate  = fs.Float64("rate", 1.0, "arrival rate per site (txn/s)")
		count = fs.Int("count", 10_000, "transactions to record")
		seed  = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := hybrid.DefaultConfig()
	file, err := os.Create(*path)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := workload.Capture(file, cfg.WorkloadConfig(), *seed, *rate, *count); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d transactions to %s\n", *count, *path)
	return nil
}

func replay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace replay", flag.ContinueOnError)
	var (
		path     = fs.String("in", "trace.jsonl", "input trace file")
		strategy = fs.String("strategy", "best", "routing strategy")
		warmup   = fs.Float64("warmup", 100, "warmup seconds")
		duration = fs.Float64("duration", 800, "measured seconds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	file, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer file.Close()
	txns, gaps, err := workload.ReadAll(file)
	if err != nil {
		return err
	}
	cfg := hybrid.DefaultConfig()
	cfg.Warmup, cfg.Duration = *warmup, *duration
	maker, err := experiments.ParseStrategy(*strategy)
	if err != nil {
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
	if err := engine.SetTrace(txns, gaps); err != nil {
		return err
	}
	res := engine.Run()
	fmt.Fprintf(out, "replayed %d of %d recorded transactions\n\n", res.Generated, len(txns))
	return writeResult(out, res)
}

// writeResult renders one simulation result as a labelled block.
func writeResult(w io.Writer, r hybrid.Result) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "strategy\t%s\n", r.Strategy)
	fmt.Fprintf(tw, "throughput\t%.2f tps over %.0f s\n", r.Throughput, r.Window)
	fmt.Fprintf(tw, "mean response time\t%.3f s (p95 %.3f s)\n", r.MeanRT, r.P95RT)
	fmt.Fprintf(tw, "  class A local\t%.3f s (%d)\n", r.MeanRTLocalA, r.CompletedLocalA)
	fmt.Fprintf(tw, "  class A shipped\t%.3f s (%d)\n", r.MeanRTShippedA, r.CompletedShippedA)
	fmt.Fprintf(tw, "  class B\t%.3f s (%d)\n", r.MeanRTClassB, r.CompletedClassB)
	fmt.Fprintf(tw, "ship fraction\t%.3f\n", r.ShipFraction)
	fmt.Fprintf(tw, "utilization\tlocal %.2f (max %.2f), central %.2f\n",
		r.UtilLocalMean, r.UtilLocalMax, r.UtilCentral)
	fmt.Fprintf(tw, "aborts\t%d (deadlock %d/%d, seized %d, NACK %d, invalidated %d)\n",
		r.TotalAborts(), r.AbortsDeadlockLocal, r.AbortsDeadlockCentral,
		r.AbortsLocalSeized, r.AbortsCentralNACK, r.AbortsCentralInval)
	return tw.Flush()
}

// export runs a simulation with the span collector attached and writes a
// Chrome trace-event file: one process lane per site plus the central
// complex, one thread per transaction, aborts flagged in span args.
func export(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace export", flag.ContinueOnError)
	var (
		path     = fs.String("out", "spans.json", "output trace-event file")
		rate     = fs.Float64("rate", 1.0, "arrival rate per site (txn/s)")
		sites    = fs.Int("sites", 10, "number of local sites")
		strategy = fs.String("strategy", "best", "routing strategy")
		seed     = fs.Uint64("seed", 1, "random seed")
		duration = fs.Float64("duration", 60, "simulated seconds to trace")
		maxEv    = fs.Int("max-events", spans.DefaultMaxEvents, "span event buffer cap (new transactions are dropped beyond it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := hybrid.DefaultConfig()
	cfg.ArrivalRatePerSite = *rate
	cfg.Sites = *sites
	cfg.Seed = *seed
	cfg.Warmup, cfg.Duration = 0, *duration
	maker, err := experiments.ParseStrategy(*strategy)
	if err != nil {
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
	c := spans.NewCollector(cfg.Sites)
	c.MaxEvents = *maxEv
	engine.Subscribe(c)
	engine.Run()
	if err := c.WriteFile(*path); err != nil {
		return err
	}
	if n := c.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "trace: buffer full; %d transaction arrivals not traced, a shipped transaction counting at each tier (raise -max-events or shorten -duration)\n", n)
	}
	fmt.Fprintf(out, "wrote %d span events to %s (open in Perfetto: https://ui.perfetto.dev)\n", c.Events(), *path)
	return nil
}

func follow(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace follow", flag.ContinueOnError)
	var (
		txnID    = fs.Int64("txn", 1, "transaction id to follow")
		rate     = fs.Float64("rate", 1.0, "arrival rate per site (txn/s)")
		strategy = fs.String("strategy", "best", "routing strategy")
		seed     = fs.Uint64("seed", 1, "random seed")
		events   = fs.Int("events", 512, "maximum events to retain")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := hybrid.DefaultConfig()
	cfg.ArrivalRatePerSite = *rate
	cfg.Seed = *seed
	cfg.Warmup, cfg.Duration = 0, 200
	maker, err := experiments.ParseStrategy(*strategy)
	if err != nil {
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
	ring := trace.NewRing(*events)
	ring.FilterTxn(*txnID)
	engine.Subscribe(obs.NewTracer(ring))
	engine.Run()
	if len(ring.Events()) == 0 {
		return fmt.Errorf("transaction %d produced no events (did it arrive within the run?)", *txnID)
	}
	fmt.Fprintf(out, "protocol events of transaction %d:\n", *txnID)
	return ring.Dump(out)
}
