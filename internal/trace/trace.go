// Package trace provides structured event tracing for the simulator: every
// protocol-level step of a transaction's life (arrival, routing, lock waits,
// aborts, authentication, commit) can be recorded with its simulated
// timestamp and replayed, filtered, or printed. Tracing is how one debugs a
// discrete-event protocol simulation; the engine emits events to a Tracer
// only while one is subscribed, so tracing stays out of hot paths.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Kind classifies protocol events.
type Kind uint8

// Event kinds, in rough lifecycle order.
const (
	Arrive Kind = iota + 1
	RouteLocal
	RouteShip
	SetupDone
	LockRequest
	LockGranted
	LockWaitBegin
	DeadlockAbort
	CommitLocal
	UpdatePropagated
	UpdateApplied
	UpdateAcked
	AuthRequest
	AuthSeized
	AuthNACK
	AuthACK
	CommitCentral
	CrossAbortLocal
	CrossAbortCentral
	Rerun
	ReplyDelivered
)

var kindNames = map[Kind]string{
	Arrive:            "arrive",
	RouteLocal:        "route-local",
	RouteShip:         "route-ship",
	SetupDone:         "setup-done",
	LockRequest:       "lock-request",
	LockGranted:       "lock-granted",
	LockWaitBegin:     "lock-wait",
	DeadlockAbort:     "deadlock-abort",
	CommitLocal:       "commit-local",
	UpdatePropagated:  "update-propagated",
	UpdateApplied:     "update-applied",
	UpdateAcked:       "update-acked",
	AuthRequest:       "auth-request",
	AuthSeized:        "auth-seized",
	AuthNACK:          "auth-nack",
	AuthACK:           "auth-ack",
	CommitCentral:     "commit-central",
	CrossAbortLocal:   "cross-abort-local",
	CrossAbortCentral: "cross-abort-central",
	Rerun:             "rerun",
	ReplyDelivered:    "reply-delivered",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded protocol step.
type Event struct {
	At   float64 // simulated time
	Kind Kind
	Txn  int64  // transaction id, 0 when not transaction-scoped
	Site int    // site index; -1 for the central site
	Elem uint32 // lock element, when relevant
	Note string // free-form detail
}

// String renders the event on one line.
func (e Event) String() string {
	site := "central"
	if e.Site >= 0 {
		site = fmt.Sprintf("site %d", e.Site)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%12.6f  %-19s %-8s", e.At, e.Kind, site)
	if e.Txn != 0 {
		fmt.Fprintf(&b, " txn %-6d", e.Txn)
	}
	if e.Elem != 0 || e.Kind == LockRequest || e.Kind == LockGranted ||
		e.Kind == AuthSeized {
		fmt.Fprintf(&b, " elem %-6d", e.Elem)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " %s", e.Note)
	}
	return b.String()
}

// Tracer receives events from the engine.
type Tracer interface {
	// Record consumes one event. Implementations must not retain the
	// event beyond the call unless they copy it (Event is a value type, so
	// plain assignment copies).
	Record(Event)
}

// Ring keeps the most recent Capacity events in a ring buffer, which keeps
// tracing affordable on arbitrarily long runs.
type Ring struct {
	buf   []Event
	next  int
	count uint64
	// filter, when non-nil, drops events for which it returns false.
	filter func(Event) bool
}

// NewRing returns a ring tracer holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: non-positive capacity %d", capacity))
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Filter installs a predicate; events failing it are not recorded. A nil
// predicate records everything.
func (r *Ring) Filter(keep func(Event) bool) { r.filter = keep }

// FilterTxn keeps only events of the given transaction.
func (r *Ring) FilterTxn(txn int64) {
	r.Filter(func(e Event) bool { return e.Txn == txn })
}

// Record implements Tracer.
func (r *Ring) Record(e Event) {
	if r.filter != nil && !r.filter(e) {
		return
	}
	r.count++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// Recorded returns the total number of events recorded (including ones that
// have since been overwritten).
func (r *Ring) Recorded() uint64 { return r.count }

// Events returns the retained events in record order (a copy).
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Dump writes the retained events, one per line.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// Counter tallies events by kind without retaining them.
type Counter struct {
	counts map[Kind]uint64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[Kind]uint64)}
}

// Record implements Tracer.
func (c *Counter) Record(e Event) { c.counts[e.Kind]++ }

// Count returns the tally for one kind.
func (c *Counter) Count(k Kind) uint64 { return c.counts[k] }

// Total returns the tally across all kinds.
func (c *Counter) Total() uint64 {
	var total uint64
	for _, n := range c.counts {
		total += n
	}
	return total
}
