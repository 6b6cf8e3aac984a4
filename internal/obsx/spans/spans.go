// Package spans reconstructs per-transaction span trees from a node's
// observer bus and exports them as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing.
//
// The paper's routing policies differ precisely in where a transaction's
// time goes — network hops, CPU queueing at the central complex, lock
// waits, optimistic-abort retries — and a summary Result cannot show that.
// A Collector subscribes to an observer bus (it is an obs.DetailObserver,
// so the nodes materialize trace events only while one is attached), folds
// the flat event stream back into nested spans, and renders one trace
// "process" (lane) per local site plus one for the central complex. Each
// transaction gets its own thread (tid = transaction id) in every lane it
// is resident in, so a timeline reads:
//
//	txn                        whole lifetime, home-site lane
//	└─ attempt N               one local execution attempt
//	    └─ lock wait (elem)    blocking waits inside the attempt
//	exec                       ship arrival to central commit, central lane
//	└─ attempt N               one central execution attempt
//	    ├─ lock wait (elem)
//	    └─ auth                authentication round at the commit point
//
// Route decisions, aborts, commits, and authentication answers appear as
// instant events with their cause in args, so Perfetto's search and
// aggregation can slice on them. A shipped transaction's transits show as
// the gaps between its "route: ship" instant and its exec span, and between
// its central commit and the end of its txn span.
//
// Folding is lane-local: every span boundary is decided from events of the
// lane the span is drawn on, never from another lane's. One Collector
// therefore serves the whole simulated system (hybridsim -spans) or the
// single lane a live node's bus carries (hybridd -spans), and
// the per-process files of a cluster, merged by MergeFiles, read like a
// simulator export of the same run.
package spans

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/trace"
)

// DefaultMaxEvents bounds the retained trace events; a long saturated run
// can emit protocol events far faster than anyone can look at them.
const DefaultMaxEvents = 1 << 20

// pid assignment: the central complex gets its own lane before the sites.
const centralPid = 1

func sitePid(site int) int {
	if site < 0 {
		return centralPid
	}
	return site + 2
}

func laneName(pid int) string {
	if pid == centralPid {
		return "central complex"
	}
	return "site " + strconv.Itoa(pid-2)
}

// event is one Chrome trace event. Args are ordered key/value pairs so the
// export is byte-deterministic.
type event struct {
	name string
	cat  string
	ph   byte // 'B', 'E', 'i', 'M'
	ts   float64
	pid  int
	tid  int64
	args []kv
}

type kv struct{ k, v string }

// laneTxn keys a transaction's tree in one lane: a shipped transaction is
// resident in two, its home site's and the central complex's.
type laneTxn struct {
	pid int
	txn int64
}

// tree is the collector's view of one transaction resident in one lane: its
// root span ("txn" at the home site, "exec" at central) is open for as long
// as the tree exists.
type tree struct {
	seq     uint64 // arrival order, for a deterministic end-of-run flush
	attempt int    // the open attempt span's number; 0 before the first

	authOpen     bool
	lockWaitOpen bool
	lockWaitElem uint32
}

// Collector accumulates trace events for export. Subscribe it before the
// run; it must see a transaction arrive in a lane to pair its span
// boundaries there. It runs on the executor of the bus it observes and is
// written after that executor has stopped, so it needs no locking.
type Collector struct {
	// MaxEvents caps the retained events (0 selects DefaultMaxEvents).
	// The cap is soft: once reached, transactions arriving in a lane are
	// dropped (and counted), while transactions with open spans keep
	// recording until they close — truncating those would corrupt the B/E
	// pairing. The buffer is the one thing the lanes of a whole-system
	// collector share.
	MaxEvents int

	sites   int
	events  []event
	trees   map[laneTxn]*tree // transactions resident in a lane, nothing else
	arrived uint64
	dropped uint64
	lastAt  map[int]float64 // per lane: where its truncated spans end

	// Set by SetProcess: the one lane this process's file names, and its
	// clock offset to the central timebase.
	procPid     int
	clockOffset float64
}

// NewCollector returns a collector for a system with the given number of
// local sites (spans of unknown sites still render; the count only seeds
// the process-name metadata).
func NewCollector(sites int) *Collector {
	return &Collector{sites: sites, trees: make(map[laneTxn]*tree), lastAt: make(map[int]float64)}
}

// SetProcess marks the export as one cluster process's file of a
// multi-process trace: site is the node's index (negative for the central
// complex), clockOffset the estimated central-minus-local clock difference
// in seconds (EstimateClockOffset; 0 at central). WriteTo then names that
// lane alone and stamps both into the file for MergeFiles. Timestamps stay
// in the local timebase — merging applies the shift, so a single process's
// file remains directly loadable too.
func (c *Collector) SetProcess(site int, clockOffset float64) {
	c.procPid, c.clockOffset = sitePid(site), clockOffset
}

// WantDetail implements obs.DetailObserver: the collector consumes the
// protocol-detail stream.
func (c *Collector) WantDetail() bool { return true }

// Dropped returns the number of transaction arrivals — an admission at a
// home site, or a shipped input at the central complex — that found the
// buffer at MaxEvents and were not traced in that lane.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Events returns the number of retained trace events.
func (c *Collector) Events() int { return len(c.events) }

func (c *Collector) full() bool {
	if c.MaxEvents > 0 {
		return len(c.events) >= c.MaxEvents
	}
	return len(c.events) >= DefaultMaxEvents
}

func (c *Collector) begin(at float64, k laneTxn, name string, args ...kv) {
	c.events = append(c.events, event{name: name, cat: "txn", ph: 'B', ts: at, pid: k.pid, tid: k.txn, args: args})
}

func (c *Collector) end(at float64, k laneTxn, args ...kv) {
	c.events = append(c.events, event{ph: 'E', ts: at, pid: k.pid, tid: k.txn, args: args})
}

func (c *Collector) instant(at float64, k laneTxn, name string, args ...kv) {
	c.events = append(c.events, event{name: name, cat: "txn", ph: 'i', ts: at, pid: k.pid, tid: k.txn, args: args})
}

// OnEvent implements obs.Observer, folding the protocol-detail stream, plus
// the one lifecycle event that marks a shipped input reaching central, into
// span boundaries. An event's lane is the partition that emitted it; every
// boundary below reads only the state of that lane's tree.
func (c *Collector) OnEvent(ev obs.Event) {
	lane, arrival := ev.Site, ev.Trace == trace.Arrive
	switch {
	case ev.Kind == obs.ShipArrive:
		arrival = true
	case ev.Kind != obs.TraceDetail:
		return
	case ev.Trace == trace.AuthRequest:
		lane = -1 // central emits it; Site names the master site asked
	}
	k := laneTxn{sitePid(lane), ev.Txn}
	c.lastAt[k.pid] = ev.At
	t := c.trees[k]
	if t == nil {
		if c.full() {
			if arrival {
				c.dropped++
			}
			return
		}
		if arrival {
			t = &tree{seq: c.arrived}
			c.arrived++
			c.trees[k] = t
		}
	}
	// Authentication answers are instants on the master site's lane, where
	// the asking transaction is resident only if this is also its home: they
	// need no tree and create none.
	switch ev.Trace {
	case trace.AuthSeized:
		c.instant(ev.At, k, "auth seized", kv{"elem", itoa(ev.Elem)}, kv{"victims", ev.Note})
		return
	case trace.AuthACK:
		c.instant(ev.At, k, "auth ack")
		return
	case trace.AuthNACK:
		c.instant(ev.At, k, "auth nack", kv{"why", ev.Note})
		return
	}
	if t == nil {
		// A transaction that arrived before the collector attached or past
		// the cap, or an event that belongs to no transaction (batched
		// update traffic).
		return
	}
	if ev.Kind == obs.ShipArrive {
		c.begin(ev.At, k, "exec", kv{"home", strconv.Itoa(int(ev.Aux))})
		c.beginAttempt(t, ev.At, k)
		return
	}
	switch ev.Trace {
	case trace.Arrive:
		c.begin(ev.At, k, "txn", kv{"class", classOf(ev.Note)})
	case trace.RouteLocal:
		c.instant(ev.At, k, "route: local")
		c.beginAttempt(t, ev.At, k)
	case trace.RouteShip:
		c.instant(ev.At, k, "route: ship")
	case trace.LockWaitBegin:
		t.lockWaitOpen, t.lockWaitElem = true, ev.Elem
		c.begin(ev.At, k, "lock wait", kv{"elem", itoa(ev.Elem)})
	case trace.LockGranted:
		if t.lockWaitOpen && t.lockWaitElem == ev.Elem {
			t.lockWaitOpen = false
			c.end(ev.At, k)
		}
	case trace.DeadlockAbort:
		c.instant(ev.At, k, "abort", kv{"cause", "deadlock"}, kv{"elem", itoa(ev.Elem)})
		c.retry(t, ev.At, k, "deadlock")
	case trace.CrossAbortLocal:
		c.instant(ev.At, k, "abort", kv{"cause", "seized"})
		c.retry(t, ev.At, k, "seized")
	case trace.CrossAbortCentral:
		c.endAuth(t, ev.At, k, "abort")
		c.instant(ev.At, k, "abort", kv{"cause", ev.Note})
		c.retry(t, ev.At, k, ev.Note)
	case trace.AuthRequest:
		if !t.authOpen {
			t.authOpen = true
			c.begin(ev.At, k, "auth")
		}
		c.instant(ev.At, k, "auth request", kv{"site", strconv.Itoa(ev.Site)})
	case trace.UpdatePropagated:
		c.instant(ev.At, k, "updates propagated", kv{"batch", ev.Note})
	case trace.CommitLocal:
		c.end(ev.At, k) // the attempt
		c.instant(ev.At, k, "commit", kv{"where", "local"})
		c.end(ev.At, k) // txn
		delete(c.trees, k)
	case trace.CommitCentral:
		c.endAuth(t, ev.At, k, "commit")
		c.end(ev.At, k) // the attempt
		c.instant(ev.At, k, "commit", kv{"where", "central"})
		c.end(ev.At, k) // exec
		delete(c.trees, k)
	case trace.ReplyDelivered:
		c.end(ev.At, k) // txn; no attempt ran in this lane
		delete(c.trees, k)
	}
}

func (c *Collector) beginAttempt(t *tree, at float64, k laneTxn) {
	t.attempt++
	c.begin(at, k, "attempt", kv{"n", strconv.Itoa(t.attempt)})
}

// retry ends the aborted attempt, tagging the cause, and opens the next one:
// every abort re-runs the transaction in the same lane, after RestartDelay.
func (c *Collector) retry(t *tree, at float64, k laneTxn, cause string) {
	if t.lockWaitOpen { // a deadlock victim aborts inside its wait
		t.lockWaitOpen = false
		c.end(at, k)
	}
	c.end(at, k, kv{"abort", cause})
	c.beginAttempt(t, at, k)
}

func (c *Collector) endAuth(t *tree, at float64, k laneTxn, outcome string) {
	if t.authOpen {
		t.authOpen = false
		c.end(at, k, kv{"outcome", outcome})
	}
}

// classOf extracts the class letter from an Arrive note ("class A"/"class B").
func classOf(note string) string {
	if n := len(note); n > 0 {
		return note[n-1:]
	}
	return "?"
}

func itoa(v uint32) string { return strconv.FormatUint(uint64(v), 10) }

// flush closes every span still open at the end of the run (transactions in
// flight at the horizon, or at a live node's shutdown) at its lane's last
// event, in arrival order so the export is deterministic.
func (c *Collector) flush() {
	open := make([]laneTxn, 0, len(c.trees))
	for k := range c.trees {
		open = append(open, k)
	}
	sort.Slice(open, func(i, j int) bool { return c.trees[open[i]].seq < c.trees[open[j]].seq })
	for _, k := range open {
		t, at := c.trees[k], c.lastAt[k.pid]
		if t.lockWaitOpen {
			c.end(at, k)
		}
		c.endAuth(t, at, k, "truncated")
		if t.attempt > 0 {
			c.end(at, k, kv{"truncated", "true"})
		}
		c.end(at, k, kv{"note", "truncated"})
		delete(c.trees, k)
	}
}

// WriteTo renders the collected spans as Chrome trace-event JSON. It closes
// any spans still open (end-of-run truncation), so call it once, after the
// run. The output is byte-deterministic for a deterministic run: field
// order, float formatting, and event order are all fixed.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	c.flush()
	var buf bytes.Buffer
	buf.WriteString(`{"displayTimeUnit":"ms",`)
	// Process-name metadata: one process's own lane, or the central complex
	// and every configured site plus whatever else appears in the trace.
	seen := map[int]bool{}
	if c.procPid != 0 {
		fmt.Fprintf(&buf, `"otherData":{"process":%s,"pid":"%d","clockOffsetSeconds":"%s"},`,
			strconv.Quote(laneName(c.procPid)), c.procPid, strconv.FormatFloat(c.clockOffset, 'g', -1, 64))
		seen[c.procPid] = true
	} else {
		seen[centralPid] = true
		for i := 0; i < c.sites; i++ {
			seen[sitePid(i)] = true
		}
	}
	buf.WriteString("\"traceEvents\":[\n")
	for _, e := range c.events {
		seen[e.pid] = true
	}
	pids := make([]int, 0, len(seen))
	for pid := range seen {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	first := true
	for _, pid := range pids {
		writeMeta(&buf, &first, pid, laneName(pid))
	}
	for i := range c.events {
		writeEvent(&buf, &first, &c.events[i])
	}
	buf.WriteString("\n]}\n")
	return buf.WriteTo(w)
}

// WriteFile exports the trace to a file.
func (c *Collector) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMeta(buf *bytes.Buffer, first *bool, pid int, name string) {
	sep(buf, first)
	fmt.Fprintf(buf, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}", pid, strconv.Quote(name))
}

func writeEvent(buf *bytes.Buffer, first *bool, e *event) {
	sep(buf, first)
	buf.WriteByte('{')
	if e.ph != 'E' {
		buf.WriteString("\"name\":")
		buf.WriteString(strconv.Quote(e.name))
		buf.WriteString(",\"cat\":\"")
		buf.WriteString(e.cat)
		buf.WriteString("\",")
	}
	buf.WriteString("\"ph\":\"")
	buf.WriteByte(e.ph)
	buf.WriteString("\",\"ts\":")
	// Simulated seconds to trace microseconds, at fixed (nanosecond)
	// precision so the export is byte-stable.
	buf.WriteString(strconv.FormatFloat(e.ts*1e6, 'f', 3, 64))
	buf.WriteString(",\"pid\":")
	buf.WriteString(strconv.Itoa(e.pid))
	buf.WriteString(",\"tid\":")
	buf.WriteString(strconv.FormatInt(e.tid, 10))
	if e.ph == 'i' {
		buf.WriteString(",\"s\":\"t\"")
	}
	if len(e.args) > 0 {
		buf.WriteString(",\"args\":{")
		for i, a := range e.args {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(strconv.Quote(a.k))
			buf.WriteByte(':')
			buf.WriteString(strconv.Quote(a.v))
		}
		buf.WriteByte('}')
	}
	buf.WriteByte('}')
}

func sep(buf *bytes.Buffer, first *bool) {
	if *first {
		*first = false
		return
	}
	buf.WriteString(",\n")
}
