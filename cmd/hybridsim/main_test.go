package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/obsx/manifest"
	"hybriddb/internal/replicate"
)

// TestShardFallbackReason pins the reason the -shards note prints, from
// the config-level eligibility rule the engine itself applies.
func TestShardFallbackReason(t *testing.T) {
	cfg := hybrid.DefaultConfig()
	cfg.Shards = 4
	if n, s := cfg.EffectiveShards(); n != 4 || s != "" {
		t.Errorf("default config flagged as unshardable: %d shards, %q", n, s)
	}
	cfg.CommDelay = 0
	if n, s := cfg.EffectiveShards(); n != 1 || !strings.Contains(s, "delay") {
		t.Errorf("zero delay: %d shards, reason %q does not name the delay", n, s)
	}
	cfg = hybrid.DefaultConfig()
	cfg.Shards = 4
	cfg.Feedback = hybrid.FeedbackIdeal
	if n, s := cfg.EffectiveShards(); n != 1 || !strings.Contains(s, "ideal") {
		t.Errorf("ideal feedback: %d shards, reason %q does not name the feedback mode", n, s)
	}
}

func TestRunProducesReport(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "1.0", "-warmup", "20", "-duration", "60", "-strategy", "best",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"strategy", "min-average/nis", "throughput", "mean response time",
		"ship fraction", "utilization", "aborts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllStrategySpecs(t *testing.T) {
	for _, spec := range []string{"none", "static:0.3", "queue-length", "threshold:-0.2"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			var buf bytes.Buffer
			err := run([]string{
				"-rate", "0.8", "-warmup", "10", "-duration", "30", "-strategy", spec,
			}, &buf)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunFeedbackModes(t *testing.T) {
	for _, fb := range []string{"auth-only", "all-messages", "ideal"} {
		var buf bytes.Buffer
		err := run([]string{
			"-rate", "0.8", "-warmup", "10", "-duration", "30", "-feedback", fb,
		}, &buf)
		if err != nil {
			t.Fatalf("feedback %s: %v", fb, err)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-strategy", "nonsense"},
		{"-feedback", "psychic"},
		{"-rate", "0"},
		{"-shards", "-1"},
		{"-unknownflag"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "0.8", "-warmup", "5", "-duration", "20",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

func TestRunRejectsBadProfilePath(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "0.8", "-warmup", "5", "-duration", "10",
		"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof"),
	}, &buf)
	if err == nil {
		t.Fatal("unwritable cpuprofile path accepted")
	}
}

func TestRunSelfCheck(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "1.5", "-warmup", "10", "-duration", "40", "-selfcheck",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithReplications(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "1.0", "-warmup", "10", "-duration", "30",
		"-strategy", "queue-length", "-replications", "3",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 replications") {
		t.Errorf("replication header missing:\n%s", out)
	}
	if !strings.Contains(out, "±") {
		t.Errorf("confidence interval missing:\n%s", out)
	}
}

func TestRunRepsShorthandAndParallel(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "1.0", "-warmup", "10", "-duration", "30",
		"-strategy", "queue-length", "-reps", "3", "-parallel", "4",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 replications") {
		t.Errorf("replication header missing:\n%s", out)
	}
}

func TestRunParallelismDoesNotChangeReport(t *testing.T) {
	render := func(parallel string) string {
		var buf bytes.Buffer
		err := run([]string{
			"-rate", "1.0", "-warmup", "10", "-duration", "30",
			"-strategy", "best", "-reps", "3", "-parallel", parallel,
		}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if serial, fanned := render("1"), render("8"); serial != fanned {
		t.Error("-parallel changed the replication report")
	}
}

func TestRunWritesSpansFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "1.0", "-sites", "4", "-warmup", "0", "-duration", "20",
		"-spans", path,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("span file holds no events")
	}
}

func TestRunSpansRejectsReplications(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "1.0", "-warmup", "0", "-duration", "10",
		"-reps", "2", "-spans", filepath.Join(t.TempDir(), "x.json"),
	}, &buf)
	if err == nil {
		t.Fatal("-spans with -reps accepted")
	}
}

func TestRunWritesManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "RUN_test.json")
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "1.0", "-sites", "4", "-warmup", "5", "-duration", "20",
		"-strategy", "queue-length", "-manifest", path,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "hybridsim" || len(m.Runs) != 1 {
		t.Fatalf("manifest header: tool=%q runs=%d", m.Tool, len(m.Runs))
	}
	r := m.Runs[0]
	if r.Result.Histograms == nil {
		t.Error("manifest run lacks histogram dumps")
	}
	if r.Config.ArrivalRatePerSite != 1.0 || r.Config.Sites != 4 {
		t.Errorf("manifest config mangled: %+v", r.Config)
	}
}

func TestRunManifestWithReplications(t *testing.T) {
	path := filepath.Join(t.TempDir(), "RUN_reps.json")
	var buf bytes.Buffer
	err := run([]string{
		"-rate", "1.0", "-warmup", "5", "-duration", "20",
		"-strategy", "queue-length", "-reps", "3", "-manifest", path,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 3 {
		t.Fatalf("%d manifest runs, want 3", len(m.Runs))
	}
	for i, r := range m.Runs {
		if want := uint64(1) + uint64(i); r.Seed != want {
			t.Errorf("replication %d seed %d, want %d", i, r.Seed, want)
		}
	}
}

func TestRunReportsPercentiles(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-rate", "1.0", "-warmup", "10", "-duration", "40"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "percentiles") || !strings.Contains(buf.String(), "p99") {
		t.Errorf("report missing percentile line:\n%s", buf.String())
	}
}

func TestWriteReplication(t *testing.T) {
	s := replicate.Summary{
		Strategy:     "queue-length",
		Replications: 5,
		MeanRT:       replicate.Estimate{Mean: 1.0, HalfWidth: 0.01},
		Throughput:   replicate.Estimate{Mean: 25, HalfWidth: 0.5},
	}
	var buf bytes.Buffer
	if err := writeReplication(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "queue-length (5 replications)") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "±") {
		t.Errorf("confidence interval missing:\n%s", out)
	}
}
