package spans

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/trace"
)

// detail is one protocol-detail bus event, as a node would emit it.
func detail(at float64, kind trace.Kind, txn int64, site int, note string) obs.Event {
	return obs.Event{At: at, Kind: obs.TraceDetail, Trace: kind, Txn: txn, Site: site, Note: note}
}

// TestCollectorMergeCrossProcess drives the live-cluster trace path end to
// end: a site's and central's collectors each fold their own half of one
// shipped transaction against skewed local clocks, the site's file is stamped
// with its handshake-estimated offset, and MergeFiles fuses the two files
// into one trace where the transaction's spans appear under a single tid in
// both process lanes with aligned timestamps.
func TestCollectorMergeCrossProcess(t *testing.T) {
	dir := t.TempDir()

	// Central's clock is 5s ahead of the site's. Each process records in
	// its own timebase.
	const skew = 5.0
	site, central := NewCollector(2), NewCollector(2)

	const txn = int64(42)
	site.OnEvent(detail(1.10, trace.Arrive, txn, 0, "class A"))
	site.OnEvent(detail(1.10, trace.RouteShip, txn, 0, ""))
	central.OnEvent(obs.Event{At: 1.15 + skew, Kind: obs.ShipArrive, Txn: txn, Site: -1}) // central local time
	central.OnEvent(detail(1.30+skew, trace.CommitCentral, txn, -1, ""))
	site.OnEvent(detail(1.35, trace.ReplyDelivered, txn, 0, ""))

	// A purely local transaction stays single-lane.
	site.OnEvent(detail(2.0, trace.Arrive, 43, 0, "class A"))
	site.OnEvent(detail(2.0, trace.RouteLocal, 43, 0, ""))
	site.OnEvent(detail(2.1, trace.CommitLocal, 43, 0, ""))

	site.SetProcess(0, EstimateClockOffset(1.0, 1.02, 6.01)) // exactly skew
	central.SetProcess(-1, 0)
	sitePath := filepath.Join(dir, "site0.json")
	centralPath := filepath.Join(dir, "central.json")
	if err := site.WriteFile(sitePath); err != nil {
		t.Fatal(err)
	}
	if err := central.WriteFile(centralPath); err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(dir, "merged.json")
	info, err := MergeToFile(outPath, sitePath, centralPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Files != 2 || info.Processes != 2 {
		t.Errorf("info = %+v, want 2 files / 2 processes", info)
	}
	if info.CrossProcessTxns != 1 {
		t.Errorf("cross-process txns = %d, want 1 (txn 42 only)", info.CrossProcessTxns)
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var tf jsonTrace
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("merged output is not valid trace JSON: %v\n%s", err, data)
	}
	lanes := map[int]bool{}
	var centralBegin, siteBegin float64
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Tid == txn {
			lanes[e.Pid] = true
		}
		if e.Ph == "B" && e.Pid == centralPid && e.Tid == txn {
			centralBegin = e.Ts
		}
		if e.Ph == "B" && e.Pid == sitePid(0) && e.Tid == txn {
			siteBegin = e.Ts
		}
	}
	if !lanes[centralPid] || !lanes[sitePid(0)] {
		t.Fatalf("txn %d does not span both lanes: %v", txn, lanes)
	}
	// After the shift, the site's 1.10 and central's (1.15+skew) must land
	// 0.05s apart in the shared timebase.
	if gap := (centralBegin - siteBegin) / 1e6; math.Abs(gap-0.05) > 1e-9 {
		t.Errorf("shifted gap site->central = %vs, want 0.05s (site begin %v, central begin %v)", gap, siteBegin, centralBegin)
	}
	// Events are globally ordered by shifted time.
	last := math.Inf(-1)
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Ts < last {
			t.Fatalf("merged events out of order: %v after %v", e.Ts, last)
		}
		last = e.Ts
	}
}

func TestMergeRejectsMissingFile(t *testing.T) {
	var b strings.Builder
	if _, err := MergeFiles(&b, "/nonexistent/trace.json"); err == nil {
		t.Fatal("missing input accepted")
	}
	if _, err := MergeFiles(&b); err == nil {
		t.Fatal("zero inputs accepted")
	}
}
