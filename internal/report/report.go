// Package report renders simulation results as human-readable reports:
// single-run summaries and replication summaries with confidence intervals.
// The CLIs share these renderers so output stays consistent across tools.
package report

import (
	"fmt"
	"io"
	"text/tabwriter"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/replicate"
)

// WriteResult renders one simulation result as a labelled block.
func WriteResult(w io.Writer, r hybrid.Result) error {
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

// WriteReplication renders a replication summary with confidence intervals.
func WriteReplication(w io.Writer, s replicate.Summary) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "strategy\t%s (%d replications)\n", s.Strategy, s.Replications)
	fmt.Fprintf(tw, "mean response time\t%s s\n", s.MeanRT)
	fmt.Fprintf(tw, "throughput\t%s tps\n", s.Throughput)
	fmt.Fprintf(tw, "ship fraction\t%s\n", s.ShipFraction)
	fmt.Fprintf(tw, "abort rate\t%s per txn\n", s.AbortRate)
	fmt.Fprintf(tw, "utilization\tlocal %s, central %s\n", s.UtilLocal, s.UtilCentral)
	return tw.Flush()
}
