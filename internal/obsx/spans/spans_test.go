package spans

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/routing"
	"hybriddb/internal/trace"
)

// traceDoc mirrors the Chrome trace-event JSON for validation.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	S    string            `json:"s"`
	Args map[string]string `json:"args"`
}

func collect(t *testing.T, cfg hybrid.Config, strat routing.Strategy) (*Collector, traceDoc) {
	t.Helper()
	e, err := hybrid.New(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg.Sites)
	e.Subscribe(c)
	e.Run()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return c, doc
}

func testConfig() hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Sites = 4
	cfg.Seed = 11
	cfg.Warmup = 0
	cfg.Duration = 40
	cfg.ArrivalRatePerSite = 1.5
	return cfg
}

// TestExportIsWellFormed checks the structural invariants of the Chrome
// trace format: every duration span balances (B/E per pid+tid, LIFO, no
// negative depth), instants carry a scope, and timestamps never go
// backwards within a thread.
func TestExportIsWellFormed(t *testing.T) {
	_, doc := collect(t, testConfig(), routing.NewStatic(0.5, 7))
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}

	type lane struct {
		pid int
		tid int64
	}
	depth := make(map[lane]int)
	lastTS := make(map[lane]float64)
	var spans, instants int
	for i, ev := range doc.TraceEvents {
		l := lane{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" {
				t.Fatalf("event %d: unexpected metadata %q", i, ev.Name)
			}
			continue
		case "B":
			if ev.Name == "" {
				t.Fatalf("event %d: B without a name", i)
			}
			depth[l]++
			spans++
		case "E":
			depth[l]--
			if depth[l] < 0 {
				t.Fatalf("event %d: E without matching B on pid %d tid %d", i, ev.Pid, ev.Tid)
			}
		case "i":
			if ev.S == "" {
				t.Fatalf("event %d: instant without scope", i)
			}
			instants++
		default:
			t.Fatalf("event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.TS < lastTS[l] {
			t.Fatalf("event %d: time went backwards on pid %d tid %d: %v -> %v",
				i, ev.Pid, ev.Tid, lastTS[l], ev.TS)
		}
		lastTS[l] = ev.TS
	}
	for l, d := range depth {
		if d != 0 {
			t.Errorf("pid %d tid %d: %d spans left open", l.pid, l.tid, d)
		}
	}
	if spans == 0 || instants == 0 {
		t.Fatalf("export has %d spans and %d instants; want both nonzero", spans, instants)
	}
}

// TestExportCoversLifecycle checks the span vocabulary: a contended run
// must produce txn/attempt/exec/auth spans, route and commit instants, and
// a central-complex process lane.
func TestExportCoversLifecycle(t *testing.T) {
	_, doc := collect(t, testConfig(), routing.NewStatic(0.5, 7))
	names := make(map[string]int)
	pids := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
		if ev.Ph != "M" {
			pids[ev.Pid] = true
		}
	}
	for _, want := range []string{
		"txn", "attempt", "exec", "auth",
		"route: local", "route: ship", "commit", "auth ack",
	} {
		if names[want] == 0 {
			t.Errorf("no %q events in export", want)
		}
	}
	if !pids[centralPid] {
		t.Error("no events in the central-complex lane")
	}
}

// TestCollectorIsDeterministic re-runs the same seed and demands identical
// bytes — the property the golden test then pins across code versions.
func TestCollectorIsDeterministic(t *testing.T) {
	render := func() []byte {
		e, err := hybrid.New(testConfig(), routing.NewStatic(0.5, 7))
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector(testConfig().Sites)
		e.Subscribe(c)
		e.Run()
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("same seed produced different exports")
	}
}

// TestMaxEventsSoftCap: past the cap, new transactions are dropped and
// counted — one per arrival in a lane, not one per event of theirs — but the
// export still balances.
func TestMaxEventsSoftCap(t *testing.T) {
	cfg := testConfig()
	e, err := hybrid.New(cfg, routing.NewStatic(0.5, 7))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg.Sites)
	c.MaxEvents = 200
	e.Subscribe(c)
	var arrivals uint64 // admissions at a home site + shipped inputs at central
	e.Subscribe(obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.TxnArrive || ev.Kind == obs.ShipArrive {
			arrivals++
		}
	}))
	e.Run()
	if c.Dropped() == 0 {
		t.Fatal("expected drops with a 200-event cap")
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("capped export is not valid JSON: %v", err)
	}
	depth := make(map[int64]int)
	var traced uint64 // root spans: one per arrival that was traced
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			if ev.Name == "txn" || ev.Name == "exec" {
				traced++
			}
			depth[int64(ev.Pid)<<32|ev.Tid&0xffffffff]++
		case "E":
			depth[int64(ev.Pid)<<32|ev.Tid&0xffffffff]--
		}
	}
	for lane, d := range depth {
		if d != 0 {
			t.Errorf("lane %x: %d spans left open in capped export", lane, d)
		}
	}
	if c.Dropped() != arrivals-traced {
		t.Errorf("Dropped() = %d, want %d: %d arrivals of which %d were traced", c.Dropped(), arrivals-traced, arrivals, traced)
	}
}

// laneOf names the partition that emitted a bus event: every event carries
// its emitter in Site, except the authentication request, which central
// emits naming the master site it asks.
func laneOf(ev obs.Event) int {
	if ev.Kind == obs.TraceDetail && ev.Trace == trace.AuthRequest {
		return -1
	}
	return ev.Site
}

// laneSplit is what a cluster is to the bus: each lane's collector sees the
// events its own partition emitted and nothing else.
type laneSplit map[int]*Collector

func (laneSplit) WantDetail() bool { return true }

func (ls laneSplit) OnEvent(ev obs.Event) { ls[laneOf(ev)].OnEvent(ev) }

// byLane groups a trace's events per process lane, in file order.
func byLane(evs []traceEvent) map[int][]traceEvent {
	out := make(map[int][]traceEvent)
	for _, ev := range evs {
		if ev.Ph != "M" {
			out[ev.Pid] = append(out[ev.Pid], ev)
		}
	}
	return out
}

// TestFoldingIsLaneLocal is the proof that no span boundary reads another
// lane's events: one contended run is observed by one whole-system collector
// and, at the same time, by one collector per lane fed only that lane's
// events — as the processes of a live cluster are. Every lane must read
// event for event the same in both, and merging the per-lane files must
// give back the whole-system export.
func TestFoldingIsLaneLocal(t *testing.T) {
	cfg := testConfig()
	cfg.Lockspace = 400 // lock waits, deadlocks and seizures inside the window
	cfg.PWrite = 0.6
	e, err := hybrid.New(cfg, routing.NewStatic(0.5, 7))
	if err != nil {
		t.Fatal(err)
	}
	whole := NewCollector(cfg.Sites)
	e.Subscribe(whole)
	lanes := laneSplit{}
	for site := -1; site < cfg.Sites; site++ {
		lanes[site] = NewCollector(cfg.Sites)
	}
	e.Subscribe(lanes)
	e.Run()

	var buf bytes.Buffer
	if _, err := whole.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var want traceDoc
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	wantLanes := byLane(want.TraceEvents)
	names := make(map[string]bool)
	for _, ev := range want.TraceEvents {
		names[ev.Name] = true
	}
	for _, name := range []string{"lock wait", "abort", "auth seized", "auth nack"} {
		if !names[name] {
			t.Errorf("the run produced no %q event; the comparison below would not cover it", name)
		}
	}

	dir := t.TempDir()
	var files []string
	for site := -1; site < cfg.Sites; site++ {
		c := lanes[site]
		c.SetProcess(site, 0)
		path := filepath.Join(dir, fmt.Sprintf("lane%d.json", site))
		if err := c.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got traceDoc
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("lane %d file is not valid JSON: %v", site, err)
		}
		pid := sitePid(site)
		gotLanes := byLane(got.TraceEvents)
		if len(gotLanes) != 1 || len(gotLanes[pid]) == 0 {
			t.Fatalf("lane %d collector drew on %d lanes, %d events on its own", site, len(gotLanes), len(gotLanes[pid]))
		}
		if !reflect.DeepEqual(gotLanes[pid], wantLanes[pid]) {
			t.Errorf("lane %d: %d events folded from its own stream differ from the whole-system collector's %d",
				site, len(gotLanes[pid]), len(wantLanes[pid]))
		}
	}

	buf.Reset()
	info, err := MergeFiles(&buf, files...)
	if err != nil {
		t.Fatal(err)
	}
	var merged traceDoc
	if err := json.Unmarshal(buf.Bytes(), &merged); err != nil {
		t.Fatal(err)
	}
	if info.Events != whole.Events() || info.Processes != cfg.Sites+1 || info.CrossProcessTxns == 0 {
		t.Errorf("merge info %+v, want %d events on %d lanes and shipped transactions crossing two", info, whole.Events(), cfg.Sites+1)
	}
	if !reflect.DeepEqual(byLane(merged.TraceEvents), wantLanes) {
		t.Error("the merged per-lane files do not reproduce the whole-system export")
	}
}

// TestWriteFile round-trips through the filesystem.
func TestWriteFile(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 10
	e, err := hybrid.New(cfg, routing.QueueLength{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg.Sites)
	e.Subscribe(c)
	e.Run()
	path := t.TempDir() + "/trace.json"
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("file holds no trace events")
	}
}
