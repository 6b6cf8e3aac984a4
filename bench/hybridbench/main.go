// Command hybridbench is the repository's benchmark: five named workloads
// over the simulator and the live cluster, end-to-end metrics from an
// untraced run, and per-layer metrics plus a layer budget from a traced run.
// README.md in this directory is the catalogue; BENCHMARK.json at the
// repository root is the contract the acceptance driver reads.
//
// With -workload it runs that one workload in this process and prints, as
// the last line of standard output, one JSON object {correct, attempted,
// failed, metrics}. Without -workload it runs every workload, each in a
// child process of its own (fresh heap, own peak RSS), and writes
// out/results.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// options selects one run of one workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // measured seconds of each timed phase
	trace    bool
	quick    bool   // self-test length: every workload well under a second
	outDir   string // where trace.json and results.json go
	digests  string // pinned digests file; "" is the embedded one
}

// benchDir locates this package's directory from the invocation directory:
// run.sh exports it; `go run .` inside the package finds "."; the
// repository root finds bench/hybridbench.
func benchDir() string {
	if d := os.Getenv("HYBRIDBENCH_DIR"); d != "" {
		return d
	}
	if _, err := os.Stat(filepath.Join("bench", "hybridbench", "go.mod")); err == nil {
		return filepath.Join("bench", "hybridbench")
	}
	return "."
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hybridbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	var secondsFlag float64
	fs.StringVar(&opt.workload, "workload", "", "run this one workload in-process (default: every workload, each in a child process)")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&secondsFlag, "seconds", 10, "measured seconds of each timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and the layer budget")
	fs.BoolVar(&opt.quick, "quick", false, "self-test length (each workload well under a second); numbers are not comparable")
	fs.StringVar(&opt.outDir, "out", "", "output directory (default <benchmark dir>/out)")
	fs.StringVar(&opt.digests, "digests", "", "read pinned digests from this file instead of the embedded testdata/digests.json")
	calibrate := fs.Int("calibrate", 0, "run the full set N times (N >= 5) and write NOISE.json")
	updateDigests := fs.String("update-digests", "", "re-pin the sim-* digests for these seeds (e.g. 1-8 or 1,2,5) at -seconds and its traced quarter; prints the diff")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hybridbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "hybridbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	if secondsFlag <= 0 {
		fmt.Fprintf(stderr, "hybridbench: -seconds must be positive, got %v\n", secondsFlag)
		return 2
	}
	opt.trace = traceFlag == 1
	opt.seconds = secondsFlag
	if opt.outDir == "" {
		opt.outDir = filepath.Join(benchDir(), "out")
	}

	switch {
	case *updateDigests != "":
		return updateDigestsMain(opt, *updateDigests, stdout, stderr)
	case *calibrate != 0:
		return calibrateMain(opt, *calibrate, stdout, stderr)
	case opt.workload == "":
		return runAllMain(opt, stdout, stderr)
	}
	if !knownWorkload(opt.workload) {
		fmt.Fprintf(stderr, "hybridbench: unknown workload %q\n", opt.workload)
		return 2
	}
	res, err := runWorkload(opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "hybridbench: %s: %v\n", opt.workload, err)
		return 1
	}
	printMetrics(stdout, opt.workload, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hybridbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		// The result line is still printed, so that the failure counts are
		// on record; the exit code is what fails the command.
		return 1
	}
	return 0
}

// runWorkload runs one workload once, traced or untraced. Diagnostics go to
// log as comment lines; the caller prints the metrics.
func runWorkload(opt options, log io.Writer) (runResult, error) {
	if opt.quick {
		opt.seconds = quickSeconds(opt.workload)
	}
	switch {
	case isSimWorkload(opt.workload) && !opt.trace:
		return runSimUntraced(opt, log)
	case isSimWorkload(opt.workload):
		return runSimTraced(opt, log)
	case isLiveWorkload(opt.workload) && !opt.trace:
		return runLiveUntraced(opt, log)
	case isLiveWorkload(opt.workload):
		return runLiveTraced(opt, log)
	}
	return runResult{}, fmt.Errorf("unknown workload %q", opt.workload)
}

// quickSeconds is the length -quick substitutes for -seconds: enough for
// every phase of the workload to complete some transactions (a live-emulated
// transaction takes a tenth of a second), and no more.
func quickSeconds(workload string) float64 {
	switch workload {
	case wlLiveEmulated:
		return 0.4
	case wlLiveWire:
		return 0.1
	}
	return 0.05
}

// tracedSeconds is the length of the traced run: a quarter of the untraced
// one, except that a -quick run is already as short as a phase can be.
func tracedSeconds(opt options) float64 {
	if opt.quick {
		return opt.seconds
	}
	return opt.seconds / 4
}

// printMetrics prints one line per metric: workload metric value unit.
func printMetrics(w io.Writer, workload string, res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %v %s\n", workload, name, mv.Value, mv.Unit)
	}
}
