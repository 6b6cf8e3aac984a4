// Command benchjson converts `go test -bench -benchmem` output into a
// machine-readable JSON summary, optionally comparing against a baseline
// bench output to compute per-benchmark deltas. It is the recording half of
// the repository's benchmark trajectory: each perf PR captures its numbers
// in a BENCH_<pr>.json so speedups are measured, not asserted.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -label pr3 -o BENCH_pr3.json
//	benchjson -baseline bench/baseline_pr2.txt -label pr3 current.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Measurement is one benchmark's figures.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
}

// Entry is one benchmark in the summary, with an optional baseline and the
// resulting deltas (negative percentages are improvements).
type Entry struct {
	Package string       `json:"package"`
	Name    string       `json:"name"`
	Current Measurement  `json:"current"`
	Base    *Measurement `json:"baseline,omitempty"`

	DeltaNsPct     *float64 `json:"delta_ns_pct,omitempty"`
	DeltaBytesPct  *float64 `json:"delta_bytes_pct,omitempty"`
	DeltaAllocsPct *float64 `json:"delta_allocs_pct,omitempty"`
}

// Fingerprint identifies the host a benchmark run was measured on. Benchmark
// deltas across different fingerprints measure the hosts, not the code, so
// every emitted summary carries one and diffing against a baseline from a
// different fingerprint warns.
type Fingerprint struct {
	// GOMAXPROCS of the measuring run, read from the -N suffix on the
	// benchmark names; falls back to the converting process's own value
	// when the input has no suffix.
	GoMaxProcs int `json:"gomaxprocs"`
	// CPU is the "cpu:" header go test prints, e.g.
	// "Intel(R) Xeon(R) Processor @ 2.10GHz". Empty if the input omits it.
	CPU string `json:"cpu,omitempty"`
	// GoVersion is the toolchain of the converting process — the same
	// toolchain that ran the benchmarks in the normal pipe usage.
	GoVersion string `json:"go_version"`
}

// Summary is the emitted document. Notes carries the human verdict of the
// measurement campaign — the conditions (host, core count) and the
// conclusion the numbers support — so a BENCH_*.json file stands alone.
type Summary struct {
	Label       string       `json:"label"`
	Notes       string       `json:"notes,omitempty"`
	Fingerprint *Fingerprint `json:"fingerprint,omitempty"`
	Benchmarks  []Entry      `json:"benchmarks"`
}

// benchLine matches the head of a result line, e.g.
//
//	BenchmarkScheduleStep-8   12345678   95.2 ns/op   0 B/op   0 allocs/op
//
// and captures what follows the iteration count: value/unit pairs in whatever
// order go test printed them, custom metrics (b.ReportMetric) included. The
// -N GOMAXPROCS suffix is stripped from the key so runs from machines with
// different core counts still line up against a baseline; its value feeds
// the host fingerprint instead.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var out string
	fs.StringVar(&out, "o", "", "output file (default stdout)")
	fs.StringVar(&out, "out", "", "alias for -o")
	var (
		label    = fs.String("label", "", "summary label, e.g. the PR being measured")
		notes    = fs.String("notes", "", "verdict/conditions note embedded in the summary")
		baseline = fs.String("baseline", "", "baseline bench output to diff against")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var current map[string]Measurement
	var order []string
	var host hostInfo
	var err error
	switch fs.NArg() {
	case 0:
		current, order, host, err = parseBench(stdin)
	case 1:
		current, order, host, err = parseBenchFile(fs.Arg(0))
	default:
		return fmt.Errorf("at most one input file, got %d", fs.NArg())
	}
	if err != nil {
		return err
	}
	if len(order) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	var base map[string]Measurement
	if *baseline != "" {
		var baseHost hostInfo
		base, _, baseHost, err = parseBenchFile(*baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if stderr != nil {
			if w := host.diff(baseHost); w != "" {
				fmt.Fprintf(stderr, "benchjson: warning: baseline measured on a different host (%s); deltas compare hosts, not code\n", w)
			}
		}
	}

	fp := Fingerprint{
		GoMaxProcs: host.maxprocs,
		CPU:        host.cpu,
		GoVersion:  runtime.Version(),
	}
	if fp.GoMaxProcs == 0 {
		fp.GoMaxProcs = runtime.GOMAXPROCS(0)
	}
	summary := Summary{Label: *label, Notes: *notes, Fingerprint: &fp}
	for _, key := range order {
		cur := current[key]
		pkg, name := splitKey(key)
		e := Entry{Package: pkg, Name: name, Current: cur}
		if b, ok := base[key]; ok {
			b := b
			e.Base = &b
			e.DeltaNsPct = deltaPct(cur.NsPerOp, b.NsPerOp)
			e.DeltaBytesPct = deltaPct(cur.BytesPerOp, b.BytesPerOp)
			e.DeltaAllocsPct = deltaPct(cur.AllocsPerOp, b.AllocsPerOp)
		}
		summary.Benchmarks = append(summary.Benchmarks, e)
	}

	buf, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}

// deltaPct returns 100*(cur-base)/base, or nil when base is zero (a delta
// against zero is meaningless; zero-alloc baselines stay zero or regress to
// a bare current value the reader can see directly).
func deltaPct(cur, base float64) *float64 {
	if base == 0 {
		return nil
	}
	d := 100 * (cur - base) / base
	return &d
}

func splitKey(key string) (pkg, name string) {
	if i := strings.LastIndex(key, " "); i >= 0 {
		return key[:i], key[i+1:]
	}
	return "", key
}

// hostInfo is the host evidence a bench output carries about the machine
// that produced it: the "cpu:" header and the GOMAXPROCS suffix on the
// benchmark names. Zero fields mean the input did not say.
type hostInfo struct {
	cpu      string
	maxprocs int
}

// diff describes how two host fingerprints disagree, or "" when every field
// both sides recorded matches. Fields only one side recorded are not a
// disagreement — old baselines may predate the header lines.
func (h hostInfo) diff(base hostInfo) string {
	var parts []string
	if h.cpu != "" && base.cpu != "" && h.cpu != base.cpu {
		parts = append(parts, fmt.Sprintf("cpu %q vs baseline %q", h.cpu, base.cpu))
	}
	if h.maxprocs != 0 && base.maxprocs != 0 && h.maxprocs != base.maxprocs {
		parts = append(parts, fmt.Sprintf("GOMAXPROCS %d vs baseline %d", h.maxprocs, base.maxprocs))
	}
	return strings.Join(parts, "; ")
}

func parseBenchFile(path string) (map[string]Measurement, []string, hostInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, hostInfo{}, err
	}
	defer f.Close()
	return parseBench(f)
}

// parseBench extracts benchmark measurements keyed by "package name". The
// `pkg:` header lines that `go test` prints qualify subsequent benchmarks;
// input without headers (a single package's output) keys by bare name.
func parseBench(r io.Reader) (map[string]Measurement, []string, hostInfo, error) {
	got := make(map[string]Measurement)
	var order []string
	var host hostInfo
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			host.cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if host.maxprocs == 0 && m[2] != "" {
			host.maxprocs, _ = strconv.Atoi(m[2])
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return nil, nil, host, fmt.Errorf("bad iteration count in %q", line)
		}
		// Read each pair by its unit: a custom metric such as txns/run
		// sits between ns/op and B/op, so positions mean nothing.
		meas := Measurement{Iterations: iters}
		fields := strings.Fields(m[4])
		hasNs := false
		for i := 0; i+1 < len(fields); i += 2 {
			var dst *float64
			switch fields[i+1] {
			case "ns/op":
				dst, hasNs = &meas.NsPerOp, true
			case "B/op":
				dst = &meas.BytesPerOp
			case "allocs/op":
				dst = &meas.AllocsPerOp
			default:
				continue
			}
			if *dst, err = strconv.ParseFloat(fields[i], 64); err != nil {
				return nil, nil, host, fmt.Errorf("bad %s in %q", fields[i+1], line)
			}
		}
		if !hasNs {
			continue // not a result line (e.g. a benchmark's own log output)
		}
		key := m[1]
		if pkg != "" {
			key = pkg + " " + m[1]
		}
		if _, dup := got[key]; !dup {
			order = append(order, key)
		}
		got[key] = meas
	}
	return got, order, host, sc.Err()
}
