package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleCurrent = `goos: linux
goarch: amd64
pkg: hybriddb/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScheduleStep-8    	12000000	        95.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	hybriddb/internal/sim	2.1s
pkg: hybriddb/internal/hybrid
BenchmarkEngineObserversOff    	     100	  10000000 ns/op	 2000000 B/op	   40000 allocs/op
PASS
`

const sampleBaseline = `pkg: hybriddb/internal/sim
BenchmarkScheduleStep-4    	 9000000	       120.0 ns/op	      48 B/op	       1 allocs/op
pkg: hybriddb/internal/hybrid
BenchmarkEngineObserversOff-4  	      75	  16000000 ns/op	 6000000 B/op	  120000 allocs/op
`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseAndDiff(t *testing.T) {
	cur := writeFile(t, "cur.txt", sampleCurrent)
	base := writeFile(t, "base.txt", sampleBaseline)
	out := filepath.Join(t.TempDir(), "out.json")

	var warn strings.Builder
	if err := run([]string{"-label", "pr3", "-baseline", base, "-o", out, cur}, nil, nil, &warn); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if s.Label != "pr3" {
		t.Errorf("label %q, want pr3", s.Label)
	}
	if len(s.Benchmarks) != 2 {
		t.Fatalf("%d benchmarks, want 2", len(s.Benchmarks))
	}

	sched := s.Benchmarks[0]
	if sched.Package != "hybriddb/internal/sim" || sched.Name != "BenchmarkScheduleStep" {
		t.Fatalf("first benchmark = %s %s", sched.Package, sched.Name)
	}
	if sched.Current.NsPerOp != 95.0 || sched.Current.AllocsPerOp != 0 {
		t.Errorf("current measurement wrong: %+v", sched.Current)
	}
	if sched.Base == nil || sched.Base.NsPerOp != 120.0 {
		t.Fatalf("baseline not matched across GOMAXPROCS suffixes: %+v", sched.Base)
	}
	// allocs went 1 -> 0: -100%.
	if sched.DeltaAllocsPct == nil || *sched.DeltaAllocsPct != -100 {
		t.Errorf("DeltaAllocsPct = %v, want -100", sched.DeltaAllocsPct)
	}

	eng := s.Benchmarks[1]
	if eng.DeltaAllocsPct == nil {
		t.Fatal("engine delta missing")
	}
	// 40000 vs 120000 allocs: -66.7%.
	if got := *eng.DeltaAllocsPct; got > -66 || got < -67 {
		t.Errorf("engine DeltaAllocsPct = %v, want about -66.7", got)
	}
	if eng.DeltaNsPct == nil || *eng.DeltaNsPct >= 0 {
		t.Errorf("engine DeltaNsPct = %v, want negative", eng.DeltaNsPct)
	}

	// The sample baseline ran at GOMAXPROCS 4 against the current 8: the
	// cross-host diff must be flagged.
	if w := warn.String(); !strings.Contains(w, "different host") || !strings.Contains(w, "GOMAXPROCS 8 vs baseline 4") {
		t.Errorf("cross-fingerprint diff not warned about: %q", w)
	}
}

// TestFingerprintEmbedded checks every summary records the measuring host:
// GOMAXPROCS from the bench-name suffix, the CPU model from the cpu: header,
// and a go version.
func TestFingerprintEmbedded(t *testing.T) {
	cur := writeFile(t, "cur.txt", sampleCurrent)
	var sb strings.Builder
	if err := run([]string{cur}, nil, &sb, nil); err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal([]byte(sb.String()), &s); err != nil {
		t.Fatal(err)
	}
	fp := s.Fingerprint
	if fp == nil {
		t.Fatal("summary has no host fingerprint")
	}
	if fp.GoMaxProcs != 8 {
		t.Errorf("GoMaxProcs = %d, want 8 (from the -8 bench suffix)", fp.GoMaxProcs)
	}
	if want := "Intel(R) Xeon(R) Processor @ 2.10GHz"; fp.CPU != want {
		t.Errorf("CPU = %q, want %q", fp.CPU, want)
	}
	if !strings.HasPrefix(fp.GoVersion, "go") {
		t.Errorf("GoVersion = %q, want a goX.Y version", fp.GoVersion)
	}
}

// TestSameHostNoWarning checks diffing two runs with matching fingerprints
// stays quiet, and fields only one side recorded are not a mismatch.
func TestSameHostNoWarning(t *testing.T) {
	cur := writeFile(t, "cur.txt", sampleCurrent)
	// Same suffix, no cpu header: cpu is unknown on the baseline side.
	base := writeFile(t, "base.txt", "pkg: hybriddb/internal/sim\nBenchmarkScheduleStep-8 \t 9000000\t 120.0 ns/op\n")
	var sb, warn strings.Builder
	if err := run([]string{"-baseline", base, cur}, nil, &sb, &warn); err != nil {
		t.Fatal(err)
	}
	if warn.Len() != 0 {
		t.Errorf("matching fingerprints still warned: %q", warn.String())
	}
}

func TestNoBaselineOmitsDeltas(t *testing.T) {
	cur := writeFile(t, "cur.txt", sampleCurrent)
	var sb strings.Builder
	if err := run([]string{cur}, nil, &sb, nil); err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal([]byte(sb.String()), &s); err != nil {
		t.Fatal(err)
	}
	for _, b := range s.Benchmarks {
		if b.Base != nil || b.DeltaNsPct != nil {
			t.Errorf("benchmark %s has baseline fields without -baseline", b.Name)
		}
	}
}

func TestZeroBaselineDeltaOmitted(t *testing.T) {
	// A zero-alloc baseline must not produce a divide-by-zero delta.
	cur := writeFile(t, "cur.txt", "pkg: p\nBenchmarkX \t 10\t 5.0 ns/op\t 8 B/op\t 1 allocs/op\n")
	base := writeFile(t, "base.txt", "pkg: p\nBenchmarkX \t 10\t 4.0 ns/op\t 0 B/op\t 0 allocs/op\n")
	var sb strings.Builder
	if err := run([]string{"-baseline", base, cur}, nil, &sb, nil); err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal([]byte(sb.String()), &s); err != nil {
		t.Fatal(err)
	}
	b := s.Benchmarks[0]
	if b.DeltaAllocsPct != nil || b.DeltaBytesPct != nil {
		t.Error("delta against a zero baseline should be omitted")
	}
	if b.DeltaNsPct == nil || *b.DeltaNsPct != 25 {
		t.Errorf("DeltaNsPct = %v, want 25", b.DeltaNsPct)
	}
}

func TestEmptyInputFails(t *testing.T) {
	cur := writeFile(t, "cur.txt", "no benchmarks here\n")
	if err := run([]string{cur}, nil, nil, nil); err == nil {
		t.Fatal("empty input did not error")
	}
}

// TestCustomMetricsBeforeMemoryColumns is the line that recorded
// `0 B/op, 0 allocs/op` for BenchmarkEngineSequential in BENCH_pr10.json:
// b.ReportMetric units print between ns/op and the -benchmem columns, so the
// columns must be found by unit, not by position.
func TestCustomMetricsBeforeMemoryColumns(t *testing.T) {
	const input = `pkg: hybriddb/internal/hybrid
BenchmarkEngineSequential-2   	       3	  16961452 ns/op	      1996 txns/run	    117700 txns/s	 2059394 B/op	   36101 allocs/op
BenchmarkEngineSequential-2 logged 12 things
`
	got, order, host, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || host.maxprocs != 2 {
		t.Fatalf("parsed %v at GOMAXPROCS %d, want one benchmark at 2", order, host.maxprocs)
	}
	want := Measurement{NsPerOp: 16961452, BytesPerOp: 2059394, AllocsPerOp: 36101, Iterations: 3}
	if m := got[order[0]]; m != want {
		t.Errorf("measurement = %+v, want %+v", m, want)
	}
	if _, _, _, err := parseBench(strings.NewReader("BenchmarkX 10 5.0 ns/op 1.2.3 B/op\n")); err == nil {
		t.Error("malformed B/op value accepted")
	}
}
