// Package obs is the engine's observer bus: every instrumentation concern —
// metrics accumulation, protocol tracing, periodic queue samples, invariant
// self-checks — subscribes to one Observer interface instead of being wired
// directly into the transaction lifecycle. The engine emits two tiers of
// events:
//
//   - Lifecycle events carry numeric payloads only (response times, queue
//     lengths, abort causes) plus the transaction id, and are emitted
//     unconditionally. The partition that emits one counts it in its Counts
//     table, which the run's Result, the conservation checks and a live
//     node's registry all read. Their payloads feed the distribution table,
//     Dists, which the engine's metrics observer folds into the Result and
//     a live node into its registry.
//   - Protocol-detail events (Kind == TraceDetail) record one §2 protocol
//     step each: its trace.Kind in Trace, plus Txn, Site, Elem and a rendered
//     Note. They are the only record of a step, and a DetailObserver the only
//     way to receive one. They are emitted only when a detail observer is
//     subscribed (Bus.HasDetail), so the hot loop pays nothing — not even
//     string construction — when tracing is off.
package obs

import (
	"hybriddb/internal/stats"
	"hybriddb/internal/trace"
)

// Kind classifies bus events.
type Kind uint8

// Lifecycle event kinds.
const (
	// MeasureStart opens the measurement window: observers reset or arm
	// their accumulators at Event.At.
	MeasureStart Kind = iota + 1
	// TxnArrive is one admitted transaction: ClassB says which class,
	// Shipped the routing decision (always true for class B), and Value the
	// staleness of the central-state view at decision time (class A only).
	TxnArrive
	// TxnLocalCommit is a class A transaction committing at its home site:
	// Site is the site index, Value the response time, Aux the number of
	// executions it took.
	TxnLocalCommit
	// TxnReply is a completion reply delivered at the origin site for a
	// centrally executed transaction: ClassB says which class, Value the
	// response time.
	TxnReply
	// ShipArrive is a shipped transaction's input arriving at the central
	// complex; Aux is its home site.
	ShipArrive
	// TxnCentralCommit is a transaction committing at the central complex
	// (its reply leaves in the same instant); Aux is the number of
	// executions it took.
	TxnCentralCommit
	// UpdateApplied is one asynchronous update message applied at the
	// central complex: Aux is the originating site, Value the element
	// count, Txn the committing transaction (0 for a flushed batch).
	UpdateApplied
	// LockWaitEnd closes one blocking lock wait; Value is its duration.
	LockWaitEnd
	// AuthRound is one authentication round opened by a central commit;
	// Value is the number of master sites asked.
	AuthRound
	// Abort causes, one kind per counter.
	AbortDeadlockLocal
	AbortDeadlockCentral
	AbortLocalSeized
	AbortCentralNACK
	AbortCentralInval
	// ColdFetch is a central-path database call that referenced a cold
	// (non-replicated) element under partial replication and paid the
	// configured fetch delay before its lock request; Value is that delay.
	ColdFetch
	// QueueSample is the periodic (1 Hz simulated) CPU queue observation:
	// Value is the central queue length, Aux the mean local queue length.
	QueueSample
	// SelfCheck asks invariant-checking observers to audit the engine now.
	SelfCheck
	// TraceDetail wraps one protocol-level trace event (Event.Trace, plus
	// Txn/Site/Elem/Note). Emitted only when a detail observer subscribed.
	TraceDetail
)

// Count slots past the last event kind: Counts splits TxnArrive three ways,
// its own slot keeping the class A arrivals routed local. No event carries
// these kinds.
const (
	ArriveShipA Kind = TraceDetail + 1 + iota // class A arrivals shipped
	ArriveB                                   // class B arrivals (always shipped)
	numCounts
)

// Counts is one partition's tally of the lifecycle events it emitted, indexed
// by Kind (with TxnArrive split by class and route). Add is the only place an
// event becomes a count.
type Counts [numCounts]uint64

// Add counts one event.
func (c *Counts) Add(ev Event) {
	k := ev.Kind
	if k == TxnArrive {
		switch {
		case ev.ClassB:
			k = ArriveB
		case ev.Shipped:
			k = ArriveShipA
		}
	}
	c[k]++
}

// Arrivals returns the transactions admitted.
func (c *Counts) Arrivals() uint64 { return c[TxnArrive] + c[ArriveShipA] + c[ArriveB] }

// Shipped returns the transactions shipped to the central complex.
func (c *Counts) Shipped() uint64 { return c[ArriveShipA] + c[ArriveB] }

// Completed returns the transactions completed at their home site: local
// commits and delivered replies.
func (c *Counts) Completed() uint64 { return c[TxnLocalCommit] + c[TxnReply] }

// Dist names a row of the distribution table, Dists: one distribution a
// partition measures, and the rule (Samples) by which events feed it.
type Dist uint8

// The distribution rows.
const (
	RTAll        Dist = iota // response time of every completion: TxnLocalCommit and TxnReply Value
	RTLocalA                 // TxnLocalCommit Value
	RTShippedA               // TxnReply Value, class A
	RTClassB                 // TxnReply Value, class B
	LockWait                 // LockWaitEnd Value
	ViewAge                  // TxnArrive Value, class A: the routing view's staleness
	CentralQueue             // QueueSample Value
	LocalQueue               // QueueSample Aux
	NumDists
)

// Emitter is a set of the partitions whose events feed a distribution.
type Emitter uint8

// The partitions.
const (
	AtSite        Emitter = 1 << iota // a local site
	AtCentral                         // the central complex
	AtCoordinator                     // the simulator's run coordinator (barrier-time samples)
)

// DistRow describes one distribution: the registry series a live node
// publishes it under (its tier's prefix, "site_" or "central_", then Series,
// with a route label when Route is set; unpublished when Series is empty),
// the partitions that emit its samples, and whether it keeps a response-time
// histogram (NewRTHists).
type DistRow struct {
	Series, Route, Help string
	From                Emitter
	Hist                bool
}

// Dists is the distribution table. The Result and a live node's registry
// both read it; Samples is its only event-to-sample mapping.
var Dists = [NumDists]DistRow{
	RTAll:        {From: AtSite, Hist: true},
	RTLocalA:     {"rt_seconds", "local", "transaction response time by route", AtSite, true},
	RTShippedA:   {"rt_seconds", "shipped", "transaction response time by route", AtSite, true},
	RTClassB:     {"rt_seconds", "ship_b", "transaction response time by route", AtSite, true},
	LockWait:     {"lock_wait_seconds", "", "blocking lock wait durations", AtSite | AtCentral, false},
	ViewAge:      {"view_age_seconds", "", "staleness of the central-state view at class A routing decisions", AtSite, false},
	CentralQueue: {From: AtCoordinator},
	LocalQueue:   {From: AtCoordinator},
}

// Sample is one value an event adds to a distribution.
type Sample struct {
	Dist  Dist
	Value float64
}

// Samples returns the samples ev adds to the distribution table, s[:n], by
// the rules the rows' comments state.
func Samples(ev Event) (s [2]Sample, n int) {
	switch ev.Kind {
	case TxnArrive:
		if !ev.ClassB {
			return [2]Sample{{ViewAge, ev.Value}}, 1
		}
	case TxnLocalCommit:
		return [2]Sample{{RTAll, ev.Value}, {RTLocalA, ev.Value}}, 2
	case TxnReply:
		row := RTShippedA
		if ev.ClassB {
			row = RTClassB
		}
		return [2]Sample{{RTAll, ev.Value}, {row, ev.Value}}, 2
	case LockWaitEnd:
		return [2]Sample{{LockWait, ev.Value}}, 1
	case QueueSample:
		return [2]Sample{{CentralQueue, ev.Value}, {LocalQueue, ev.Aux}}, 2
	}
	return s, 0
}

// Moments is a mean-and-variance accumulator per distribution row.
type Moments [NumDists]stats.Welford

// Merge folds o into m row by row.
func (m *Moments) Merge(o *Moments) {
	for r := range m {
		m[r].Merge(&o[r])
	}
}

// RTHists holds a response-time histogram, 0–60 s in 0.1 s buckets, for each
// row that keeps one (DistRow.Hist), and nil for the others.
type RTHists [NumDists]*stats.Histogram

// NewRTHists returns empty histograms for the histogram rows.
func NewRTHists() *RTHists {
	var h RTHists
	for r, row := range Dists {
		if row.Hist {
			h[r] = stats.NewHistogram(0, 60, 600)
		}
	}
	return &h
}

// Merge folds o into h row by row.
func (h *RTHists) Merge(o *RTHists) {
	for r, x := range h {
		if x != nil {
			x.Merge(o[r])
		}
	}
}

var kindNames = map[Kind]string{
	MeasureStart:         "measure-start",
	TxnArrive:            "txn-arrive",
	TxnLocalCommit:       "txn-local-commit",
	TxnReply:             "txn-reply",
	ShipArrive:           "ship-arrive",
	TxnCentralCommit:     "txn-central-commit",
	UpdateApplied:        "update-applied",
	LockWaitEnd:          "lock-wait-end",
	AuthRound:            "auth-round",
	AbortDeadlockLocal:   "abort-deadlock-local",
	AbortDeadlockCentral: "abort-deadlock-central",
	AbortLocalSeized:     "abort-local-seized",
	AbortCentralNACK:     "abort-central-nack",
	AbortCentralInval:    "abort-central-inval",
	ColdFetch:            "cold-fetch",
	QueueSample:          "queue-sample",
	SelfCheck:            "self-check",
	TraceDetail:          "trace-detail",
}

// String returns the kind's name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "Kind(?)"
}

// Event is one observation. Which payload fields are meaningful depends on
// Kind; unused fields are zero.
type Event struct {
	At   float64 // simulated time
	Kind Kind

	// Protocol-detail payload (Kind == TraceDetail). Txn and Site are set on
	// per-transaction lifecycle events too: Site is the emitting partition,
	// -1 for the central complex.
	Trace trace.Kind
	Txn   int64
	Site  int
	Elem  uint32
	Note  string

	// Lifecycle payload.
	ClassB  bool
	Shipped bool
	Value   float64
	Aux     float64
}

// Observer receives events from the engine. Implementations must not retain
// the event beyond the call unless they copy it (Event is a value type).
type Observer interface {
	OnEvent(Event)
}

// DetailObserver is an Observer that also wants the high-frequency
// protocol-detail stream (TraceDetail events). Bus.Subscribe detects it.
type DetailObserver interface {
	Observer
	WantDetail() bool
}

// Func adapts a plain function to an Observer.
type Func func(Event)

// OnEvent implements Observer.
func (f Func) OnEvent(e Event) { f(e) }

// Bus fans events out to subscribed observers. The zero value is ready to
// use; an empty bus drops everything.
type Bus struct {
	all    []Observer // receive every event
	detail []Observer // additionally receive TraceDetail events
}

// Subscribe adds an observer. Observers implementing DetailObserver with
// WantDetail() == true also receive the protocol-detail stream.
func (b *Bus) Subscribe(o Observer) {
	if o == nil {
		return
	}
	b.all = append(b.all, o)
	if d, ok := o.(DetailObserver); ok && d.WantDetail() {
		b.detail = append(b.detail, o)
	}
}

// HasDetail reports whether any subscribed observer wants protocol-detail
// events. Emitters check this before building a TraceDetail event, so note
// strings are never rendered when tracing is off.
func (b *Bus) HasDetail() bool { return len(b.detail) > 0 }

// Emit delivers a lifecycle event to every subscribed observer.
func (b *Bus) Emit(e Event) {
	for _, o := range b.all {
		o.OnEvent(e)
	}
}

// EmitDetail delivers a protocol-detail event to detail observers only.
func (b *Bus) EmitDetail(e Event) {
	for _, o := range b.detail {
		o.OnEvent(e)
	}
}
