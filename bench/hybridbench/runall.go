package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// childRun runs one workload in a child process — a fresh heap and a peak
// RSS of its own — forwards the child's report lines, and returns the
// result parsed from its last line.
func childRun(opt options, workload string, trace bool, stdout, stderr io.Writer) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-out", opt.outDir,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	if opt.digests != "" {
		args = append(args, "-digests", opt.digests)
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run() // a failed check exits non-zero but still prints its result
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Fprintln(stdout, last)
		if runErr != nil {
			return runResult{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return runResult{}, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return res, nil
}

// resultsFile is out/results.json.
type resultsFile struct {
	Host      fingerprint                     `json:"host"`
	Seed      uint64                          `json:"seed"`
	Seconds   float64                         `json:"seconds"`
	Quick     bool                            `json:"quick,omitempty"`
	Workloads map[string]map[string]runResult `json:"workloads"` // workload -> "end_to_end" | "per_layer"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAllMain runs every workload (and, with -trace 1, its traced run too),
// prints one line per metric, and writes out/results.json.
func runAllMain(opt options, stdout, stderr io.Writer) int {
	host := hostFingerprint()
	fmt.Fprintf(stdout, "# host: %s, %d CPUs, GOMAXPROCS %d, %s %s/%s\n", host.CPU, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.GOOS, host.GOARCH)
	file := resultsFile{Host: host, Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick, Workloads: map[string]map[string]runResult{}}
	failed := false
	for _, wl := range workloads {
		file.Workloads[wl.Name] = map[string]runResult{}
		modes := []bool{false}
		if opt.trace {
			modes = append(modes, true)
		}
		for _, trace := range modes {
			res, err := childRun(opt, wl.Name, trace, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "hybridbench: %v\n", err)
				failed = true
				continue
			}
			if !res.Correct || res.Failed != 0 {
				fmt.Fprintf(stderr, "hybridbench: %s failed its checks: %d of %d failed\n", wl.Name, res.Failed, res.Attempted)
				failed = true
			}
			key := "end_to_end"
			if trace {
				key = "per_layer"
			}
			file.Workloads[wl.Name][key] = res
		}
	}
	path := filepath.Join(opt.outDir, "results.json")
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintf(stderr, "hybridbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# wrote %s\n", path)
	if failed {
		return 1
	}
	return 0
}

// failuresOnly forwards the FAIL and WARN lines of a child's report and
// drops the rest: a calibration prints fifty reports otherwise.
type failuresOnly struct{ w io.Writer }

func (f failuresOnly) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("FAIL")) || bytes.HasPrefix(p, []byte("WARN")) {
		return f.w.Write(p)
	}
	return len(p), nil
}

// noiseEntry is the run-to-run distribution of one metric on one workload.
type noiseEntry struct {
	Median    float64   `json:"median"`
	Q1        float64   `json:"q1"`
	Q3        float64   `json:"q3"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
	RelSpread float64   `json:"rel_spread"` // (q3-q1)/median
	Values    []float64 `json:"values"`
}

// noiseFile is NOISE.json: what this host's noise looked like when the
// bounds in BENCHMARK.json were chosen.
type noiseFile struct {
	Host      fingerprint                      `json:"host"`
	Runs      int                              `json:"runs"`
	FirstSeed uint64                           `json:"first_seed"`
	Seconds   float64                          `json:"seconds"`
	Rule      string                           `json:"rule"`
	Bounds    map[string]float64               `json:"suggested_bounds"`
	Metrics   map[string]map[string]noiseEntry `json:"metrics"` // workload -> metric
}

// suggestBound turns a metric's worst relative spread over the workloads
// into a regression bound: three times the spread, so that the observed
// spread sits below a third of the bound; at least 2 %, at most 25 %.
func suggestBound(worstSpread float64) float64 {
	b := 3 * worstSpread
	b = float64(int(b*100)+1) / 100 // round up to a whole percent
	return min(max(b, 0.02), 0.25)
}

// calibrateMain runs the untraced set n times, a different seed each time as
// the acceptance driver does, and writes NOISE.json next to the sources.
func calibrateMain(opt options, n int, stdout, stderr io.Writer) int {
	if n < 5 {
		fmt.Fprintf(stderr, "hybridbench: -calibrate needs at least 5 runs, got %d\n", n)
		return 2
	}
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		o := opt
		o.seed = opt.seed + uint64(i)
		for _, wl := range workloads {
			res, err := childRun(o, wl.Name, false, failuresOnly{stderr}, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "hybridbench: %v\n", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "hybridbench: %s seed %d failed its checks; not calibrating on a failing run\n", wl.Name, o.seed)
				return 1
			}
			if values[wl.Name] == nil {
				values[wl.Name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[wl.Name][name] = append(values[wl.Name][name], mv.Value)
			}
			fmt.Fprintf(stdout, "# calibrate %d/%d %s done\n", i+1, n, wl.Name)
		}
	}
	file := noiseFile{
		Host: hostFingerprint(), Runs: n, FirstSeed: opt.seed, Seconds: opt.seconds,
		Rule:    "bound = 3 x the worst (q3-q1)/median over the workloads, rounded up to a whole percent, floor 0.02, cap 0.25; setup_s takes the largest bound",
		Bounds:  map[string]float64{},
		Metrics: map[string]map[string]noiseEntry{},
	}
	worst := map[string]float64{}
	for wl, metrics := range values {
		file.Metrics[wl] = map[string]noiseEntry{}
		for name, xs := range metrics {
			s := sortedCopy(xs)
			q1, q3 := quartiles(xs)
			e := noiseEntry{Median: median(xs), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], RelSpread: relSpread(xs), Values: xs}
			file.Metrics[wl][name] = e
			worst[name] = max(worst[name], e.RelSpread)
		}
	}
	names := make([]string, 0, len(worst))
	for name := range worst {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		file.Bounds[name] = suggestBound(worst[name])
		fmt.Fprintf(stdout, "%-16s worst spread %6.2f%%  suggested bound %.2f\n", name, 100*worst[name], file.Bounds[name])
	}
	file.Bounds["setup_s"] = 0.25
	path := filepath.Join(benchDir(), "NOISE.json")
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintf(stderr, "hybridbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# wrote %s\n", path)
	return 0
}

// parseSeeds reads "1-8", "1,2,5" or a mix of both.
func parseSeeds(spec string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(spec, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed list %q: %w", spec, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(strings.TrimSpace(hi), 10, 64); err != nil {
				return nil, fmt.Errorf("seed list %q: %w", spec, err)
			}
		}
		if b < a || b-a > 4096 {
			return nil, fmt.Errorf("seed list %q: bad range %d-%d", spec, a, b)
		}
		for s := a; s <= b; s++ {
			out = append(out, s)
		}
	}
	return out, nil
}

// updateDigestsMain re-pins the digests of every sim-* workload for the
// given seeds, at the lengths the untraced run, the traced run and (for
// seeds 1 and 2, which the self-test uses) the -quick runs simulate, and
// prints what changed. Run it after a change that is meant to alter the
// model; a change meant only to make the program faster must not need it.
func updateDigestsMain(opt options, seedSpec string, stdout, stderr io.Writer) int {
	seeds, err := parseSeeds(seedSpec)
	if err != nil {
		fmt.Fprintf(stderr, "hybridbench: %v\n", err)
		return 2
	}
	path := filepath.Join(benchDir(), "testdata", "digests.json")
	onDisk := ""
	if _, err := os.Stat(path); err == nil {
		onDisk = path // start from the file on disk, not the embedded copy
	}
	pinned, err := loadDigests(onDisk)
	if err != nil {
		fmt.Fprintf(stderr, "hybridbench: %v\n", err)
		return 1
	}
	changed := 0
	for _, wl := range workloads {
		if !isSimWorkload(wl.Name) {
			continue
		}
		for _, seed := range seeds {
			for _, seconds := range simLengths(wl.Name, opt.seconds, seed <= 2) {
				p := simPlanFor(wl.Name, seed, seconds)
				shards := 0
				if p.dual {
					shards = 2 // bit-identical to sequential (checked on every run), and faster
				}
				e, _, err := p.newEngine(shards)
				if err != nil {
					fmt.Fprintf(stderr, "hybridbench: %v\n", err)
					return 1
				}
				got := digestOf(e.Run())
				key := digestKey(p.name, seed, p.cfg.Duration)
				switch old, ok := pinned[key]; {
				case !ok:
					fmt.Fprintf(stdout, "+ %s %+v\n", key, got)
					changed++
				case old != got:
					fmt.Fprintf(stdout, "- %s %+v\n+ %s %+v\n", key, old, key, got)
					changed++
				}
				pinned[key] = got
			}
		}
	}
	if err := writeDigests(path, pinned); err != nil {
		fmt.Fprintf(stderr, "hybridbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# %d digests changed; wrote %s (rebuild to embed it)\n", changed, path)
	return 0
}

// simLengths lists the `seconds` values whose simulated durations a sim
// workload runs at: one timed run of the untraced set, the traced run, and
// optionally the two -quick equivalents.
func simLengths(workload string, seconds float64, quick bool) []float64 {
	out := []float64{simRunSeconds(workload, seconds), seconds / 4}
	if quick {
		q := quickSeconds(workload)
		out = append(out, simRunSeconds(workload, q), q) // a -quick traced run is not quartered
	}
	return out
}
