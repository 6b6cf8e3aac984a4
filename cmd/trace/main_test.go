package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/trace"
)

func TestCaptureThenReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")

	var buf bytes.Buffer
	if err := run([]string{"capture", "-out", path, "-rate", "2.0", "-count", "500"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "recorded 500 transactions") {
		t.Errorf("capture output: %q", buf.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	buf.Reset()
	err := run([]string{"replay", "-in", path, "-warmup", "5", "-duration", "50", "-strategy", "queue-length"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"replayed", "strategy", "mean response time"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}
}

func TestFollowDumpsProtocolEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"follow", "-txn", "5", "-rate", "1.0"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "protocol events of transaction 5") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "arrive") {
		t.Errorf("arrive event missing:\n%s", out)
	}
}

func TestFollowUnknownTxn(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"follow", "-txn", "99999999", "-rate", "0.5"}, &buf); err == nil {
		t.Fatal("nonexistent transaction accepted")
	}
}

func TestBadSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"bogus"}, &buf); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestReplayMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"replay", "-in", "/nonexistent/file"}, &buf); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestExportWritesSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	var buf bytes.Buffer
	err := run([]string{"export", "-out", path, "-rate", "1.0", "-sites", "4", "-duration", "15"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "span events") {
		t.Errorf("no confirmation line:\n%s", buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export holds no events")
	}
}

func TestMergeFusesProcessFiles(t *testing.T) {
	dir := t.TempDir()
	detail := func(at float64, kind trace.Kind, site int) obs.Event {
		return obs.Event{At: at, Kind: obs.TraceDetail, Trace: kind, Txn: 7, Site: site}
	}
	site := spans.NewCollector(1)
	site.OnEvent(detail(1.0, trace.Arrive, 0))
	site.OnEvent(detail(1.0, trace.RouteShip, 0))
	site.OnEvent(detail(1.5, trace.ReplyDelivered, 0))
	site.SetProcess(0, 2.0)
	central := spans.NewCollector(1)
	central.OnEvent(obs.Event{At: 3.1, Kind: obs.ShipArrive, Txn: 7, Site: -1})
	central.OnEvent(detail(3.4, trace.CommitCentral, -1))
	central.SetProcess(-1, 0)
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := site.WriteFile(a); err != nil {
		t.Fatal(err)
	}
	if err := central.WriteFile(b); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "merged.json")
	var buf bytes.Buffer
	if err := run([]string{"merge", "-out", out, a, b}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 cross-process transactions") {
		t.Errorf("merge summary:\n%s", buf.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("merged file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 4 {
		t.Fatalf("merged file holds %d events, want >= 4", len(doc.TraceEvents))
	}
}

func TestMergeNeedsInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"merge", "-out", filepath.Join(t.TempDir(), "m.json")}, &buf); err == nil {
		t.Fatal("merge with no inputs accepted")
	}
}

func TestExportRejectsBadStrategy(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"export", "-strategy", "nonsense"}, &buf); err == nil {
		t.Fatal("bad strategy accepted")
	}
}

func TestWriteResult(t *testing.T) {
	r := hybrid.Result{
		Strategy:          "best",
		Window:            100,
		MeanRT:            1.0,
		P95RT:             2.0,
		Throughput:        25,
		ShipFraction:      0.4,
		CompletedLocalA:   100,
		CompletedShippedA: 80,
		CompletedClassB:   60,
		MeanRTLocalA:      0.8,
		MeanRTShippedA:    1.1,
		MeanRTClassB:      1.1,
		UtilLocalMean:     0.5,
		UtilLocalMax:      0.6,
		UtilCentral:       0.4,
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"best", "25.00 tps", "1.000 s", "ship fraction", "aborts"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
