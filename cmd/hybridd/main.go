// Command hybridd runs one node of a live hybrid distributed–centralized
// database cluster: either the central node or one local site. The nodes
// run the simulator's own transaction lifecycle (internal/cluster puts one
// internal/hybrid node on a wall-clock event loop) over length-prefixed TCP
// frames.
//
// A minimal loopback cluster:
//
//	hybridd -role central -listen 127.0.0.1:4000 &
//	hybridd -role site -id 0 -central 127.0.0.1:4000 -listen 127.0.0.1:4100 &
//	hybridd -role site -id 1 -central 127.0.0.1:4000 -listen 127.0.0.1:4101 &
//	hybridload -addrs 127.0.0.1:4100,127.0.0.1:4101 -sites 2 -duration 5
//
// All nodes of a cluster must be started with the same configuration flags
// (-sites, -delay, service times, ...): the workload shape determines data
// partitioning and the service times drive the emulation. Each node prints
// "listening on <addr>" once ready (with -listen :0 the kernel picks the
// port) and shuts down cleanly on SIGINT/SIGTERM, printing its counters.
//
// Observability: -debug-addr serves /metrics (Prometheus text),
// /debug/vars, and /debug/pprof; -spans subscribes a span collector to the
// node and writes its trace on shutdown (merge per-process files with
// `trace merge`) — without it the node builds no trace event at all;
// SIGQUIT dumps the flight recorder of recent wire events to stderr;
// -v / -q adjust log verbosity.
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

	"hybriddb/internal/cluster"
	"hybriddb/internal/experiments"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/obsx/logx"
	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/routing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hybridd", flag.ContinueOnError)
	var (
		role      = fs.String("role", "", "node role: central or site")
		id        = fs.Int("id", 0, "site index in [0, sites), site role only")
		central   = fs.String("central", "", "central node address, site role only")
		listen    = fs.String("listen", "127.0.0.1:0", "listen address (port 0 picks a free port)")
		strategy  = fs.String("strategy", "threshold:0", "routing strategy, site role only: "+strings.Join(experiments.StrategyNames(), ", "))
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		spansOut  = fs.String("spans", "", "trace the node's transactions and write the spans (Chrome trace-event JSON) here on shutdown")
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// startObs wires the node-independent observability surfaces once the
	// node is up.
	startObs := func(reg *metrics.Registry, fr *flight.Recorder) error {
		flight.InstallSigquit(os.Stderr, fr)
		if *debugAddr == "" {
			return nil
		}
		bound, err := metrics.StartDebugServer(*debugAddr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "hybridd: debug listener on http://%s/metrics\n", bound)
		return nil
	}
	// -spans is the node's one tracing switch: the collector rides the
	// node's bus, on its loop, and is written once the loop has stopped.
	var collector *spans.Collector
	var observers []obs.Observer
	if *spansOut != "" {
		collector = spans.NewCollector(cfg.Sites)
		observers = append(observers, collector)
	}
	writeSpans := func(site int, clockOffset float64) error {
		if collector == nil {
			return nil
		}
		collector.SetProcess(site, clockOffset)
		if err := collector.WriteFile(*spansOut); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "hybridd: %d span events written to %s (%d transaction arrivals not traced)\n",
			collector.Events(), *spansOut, collector.Dropped())
		return nil
	}

	switch *role {
	case "central":
		node, err := cluster.StartCentral(cfg, *listen, observers...)
		if err != nil {
			return err
		}
		if err := startObs(node.Metrics(), node.Flight()); err != nil {
			return err
		}
		fmt.Fprintf(out, "hybridd: central listening on %s (%d sites configured)\n", node.Addr(), cfg.Sites)
		<-ctx.Done()
		st := node.Stats()
		node.Close()
		fmt.Fprintf(out, "hybridd: central done: %d shipped arrivals, %d commits, %d auth rounds, "+
			"%d NACK aborts, %d invalidation aborts, %d deadlock aborts, %d updates applied\n",
			st[obs.ShipArrive], st[obs.TxnCentralCommit], st[obs.AuthRound],
			st[obs.AbortCentralNACK], st[obs.AbortCentralInval], st[obs.AbortDeadlockCentral], st[obs.UpdateApplied])
		return writeSpans(-1, 0)

	case "site":
		if *central == "" {
			return fmt.Errorf("site role requires -central <addr>")
		}
		maker, err := experiments.ParseStrategy(*strategy)
		if err != nil {
			return err
		}
		strat, err := maker.Make(cfg)
		if err != nil {
			return err
		}
		// Fork stateful strategies per site as the simulator does, so two
		// site processes never share decision state. The per-site seed is
		// derived from the configuration seed; it is deterministic across
		// restarts of the same site but (unlike the simulator's split RNG
		// stream) not bit-matched to a simulation run. StartSite then takes
		// the site loop's own instance of a routing.LoopLocal strategy.
		if sl, ok := strat.(routing.SiteLocal); ok {
			strat = sl.ForSite(*id, cfg.Seed+uint64(*id)*0x9E3779B97F4A7C15+0x1234)
		}
		node, err := cluster.StartSite(cfg, *id, *central, *listen, strat, observers...)
		if err != nil {
			return err
		}
		if err := startObs(node.Metrics(), node.Flight()); err != nil {
			return err
		}
		fmt.Fprintf(out, "hybridd: site %d listening on %s (uplink %s, strategy %s)\n",
			*id, node.Addr(), *central, strat.Name())
		<-ctx.Done()
		st := node.Stats()
		shipErrs := node.Metrics().Snapshot()[`wire_errors_total{type="ship-send"}`]
		node.Close()
		fmt.Fprintf(out, "hybridd: site %d done: %d arrivals, %d local commits, %d replies delivered, "+
			"%d/%d class A/B shipped, %d seized aborts, %d deadlock aborts, %.0f ship send errors\n",
			*id, st.Arrivals(), st[obs.TxnLocalCommit], st[obs.TxnReply],
			st[obs.ArriveShipA], st[obs.ArriveB], st[obs.AbortLocalSeized], st[obs.AbortDeadlockLocal], shipErrs)
		return writeSpans(*id, node.ClockOffset())

	case "":
		return fmt.Errorf("missing -role (central or site)")
	default:
		return fmt.Errorf("unknown role %q (want central or site)", *role)
	}
}
