package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hybriddb/internal/netx"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json to the catalogue in
// spec.go and to the limits of the benchmark contract.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the catalogue %d", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the catalogue %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		unique(m.Name)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the catalogue %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and better lower, is %s / %s", m.Unit, m.Better)
			}
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be listed and carry the largest bound: has %v, largest is %v", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the catalogue %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench/hybridbench" {
		t.Errorf("paths = %v, want [bench/hybridbench]", b.Paths)
	}
}

// TestQuickEmitsEveryMetric runs every workload at -quick length, traced and
// untraced, in this process: every run must pass its checks and report
// exactly the catalogue's names with the catalogue's units, and the whole
// set must stay a smoke test (under 15 s).
func TestQuickEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots loopback clusters")
	}
	start := time.Now()
	out := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var log bytes.Buffer
			res, err := runWorkload(options{workload: wl.Name, seed: 1, seconds: 10, trace: traced, quick: true, outDir: out}, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", wl.Name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", wl.Name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			if strings.Contains(log.String(), "is not pinned") {
				t.Errorf("%s traced=%v: the quick run's digest is not pinned in testdata/digests.json", wl.Name, traced)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, catalogue has %d", wl.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, d.Name)
				case mv.Unit != d.Unit:
					t.Errorf("%s %s: unit %q, catalogue says %q", wl.Name, d.Name, mv.Unit, d.Unit)
				case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("%s %s: value %v", wl.Name, d.Name, mv.Value)
				case !traced && mv.Value <= 0:
					t.Errorf("%s %s: end-to-end value %v must be positive", wl.Name, d.Name, mv.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, wl.Name, "trace.json")); err != nil {
					t.Errorf("%s: traced run wrote no trace.json: %v", wl.Name, err)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("-quick set took %v, want under 15 s", d)
	}
}

// TestCorruptedDigestFailsTheCommand corrupts one pinned digest and checks
// that the command — not merely a helper — exits non-zero and reports every
// transaction failed.
func TestCorruptedDigestFailsTheCommand(t *testing.T) {
	digests, err := loadDigests("")
	if err != nil {
		t.Fatal(err)
	}
	p := simPlanFor(wlSimPaper, 1, simRunSeconds(wlSimPaper, quickSeconds(wlSimPaper)))
	key := digestKey(wlSimPaper, 1, p.cfg.Duration)
	d, ok := digests[key]
	if !ok {
		t.Fatalf("digest %s is not pinned; run -update-digests", key)
	}
	d.Completed++
	digests[key] = d
	path := filepath.Join(t.TempDir(), "digests.json")
	if err := writeDigests(path, digests); err != nil {
		t.Fatal(err)
	}

	var stdout bytes.Buffer
	args := []string{"-workload", wlSimPaper, "-seed", "1", "-quick", "-digests", path, "-out", t.TempDir()}
	if code := realMain(args, &stdout, io.Discard); code == 0 {
		t.Errorf("exit code 0 with a corrupted digest")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("corrupted digest: correct=%v failed=%d of %d, want the whole run failed", res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(stdout.String(), "digest mismatch") {
		t.Errorf("output does not name the digest mismatch:\n%s", stdout.String())
	}

	stdout.Reset()
	if code := realMain(args[:5], &stdout, io.Discard); code != 0 {
		t.Errorf("exit code %d with the pinned digests\n%s", code, stdout.String())
	}
}

func TestPercentileSorted(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.125, 15}, {0.95, 48},
	} {
		if got := percentileSorted(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentileSorted(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentileSorted([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	candidates := []float64{0.95, 0.99, 0.999}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100, 0, false}, // 5 beyond p95
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := highestSupportedPercentile(c.n, candidates)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got %v/%v, want %v/%v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule the acceptance driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10.5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10.5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestLatenessUs(t *testing.T) {
	due := []int64{1000, 2000, 3000}
	sent := []int64{1500, 1900, 13000}
	got := latenessUs(due, sent)
	want := []float64{0.5, 0, 10} // a send ahead of its due time is not late
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lateness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: 30..40 counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "open", Start: 5, End: -1, Parent: 0}, // never closed: ignored
	}
	got := selfTimes(spans)
	want := []int64{100 - (50 + 10), 30 - 5, 30, 30, 5, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderWritesValidChromeTrace(t *testing.T) {
	rec := newRecorder("test/seed=1")
	root := rec.begin("root", -1)
	child := rec.begin("child", root)
	rec.end(child)
	rec.add(span{Name: "request", Start: 10, Mid: 20, End: 30, Parent: root, Request: true})
	rec.end(root)
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 2+3 {
		t.Errorf("%d events, want 2 complete + begin/instant/end of the request", len(events))
	}
	var nilRec *recorder // the untraced run
	nilRec.end(nilRec.begin("x", -1))
	nilRec.add(span{})
}

// TestCountingConnCountsFrames sends a known number of frames through a
// netx.Conn over the counting wrapper: today's write pump issues exactly one
// Write per frame.
func TestCountingConnCountsFrames(t *testing.T) {
	cn, sn, err := loopbackPair()
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingConn{Conn: cn}
	sender := netx.NewConn(counted, netx.Options{})
	got := make(chan int, 1)
	go func() {
		n := 0
		buf := make([]byte, 0, 64)
		for n < 250 {
			var err error
			if _, buf, err = netx.ReadFrame(sn, buf); err != nil {
				break
			}
			n++
		}
		got <- n
	}()
	payload := []byte("twelve bytes")
	for i := 0; i < 250; i++ {
		if err := sender.Send(netx.MsgSubmit, uint64(i+1), payload); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case n := <-got:
		if n != 250 {
			t.Fatalf("peer read %d frames, want 250", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer did not read the frames")
	}
	sender.Close()
	sn.Close()
	if w := counted.writes.Load(); w != 250 {
		t.Errorf("%d writes for 250 frames", w)
	}
	var _ net.Conn = counted
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("1-3,7, 9")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("parseSeeds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSeeds = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "a", "3-1", "1-"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}
