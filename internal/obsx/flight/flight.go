// Package flight is the cluster's flight recorder: a fixed-size ring of
// recent wire events per process, cheap enough to leave always on. When a
// node misbehaves — a stuck transaction, a reconnect storm, an e2e test
// timing out — the last few hundred frames usually tell the story, and the
// ring can be dumped on SIGQUIT or on test failure without having run at
// debug log level the whole time.
package flight

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Dir marks an event's direction relative to the recording process.
type Dir uint8

const (
	// In is a frame received from a peer.
	In Dir = iota
	// Out is a frame sent (or attempted) to a peer.
	Out
	// Note is a local event that is neither (reconnect, drop, abort).
	Note
)

func (d Dir) String() string {
	switch d {
	case In:
		return "<-"
	case Out:
		return "->"
	default:
		return "--"
	}
}

// None is the Txn or Peer of an event that has none.
const None = -1

// Event is one recorded wire event. Frames carry their transaction and peer
// as numbers, formatted only when the ring is dumped.
type Event struct {
	At   time.Time // wall clock at Record time
	Dir  Dir
	Type string // message type name ("ship", "reply") or event kind
	Txn  int64  // transaction the frame belongs to, or None
	Peer int    // site at the other end (or the submitter's target), or None
	Note string // free-form detail of a cold event (address, error)
}

// Detail renders the event's transaction, peer and note as one string, the
// last column of a dump line.
func (ev Event) Detail() string {
	var parts []string
	if ev.Txn != None {
		parts = append(parts, "txn "+strconv.FormatInt(ev.Txn, 10))
	}
	if ev.Peer != None {
		parts = append(parts, "site "+strconv.Itoa(ev.Peer))
	}
	if ev.Note != "" {
		parts = append(parts, ev.Note)
	}
	return strings.Join(parts, " ")
}

// Recorder is a fixed-capacity ring of Events, safe from any goroutine.
// RecordFrame — the call on every frame's path — is mutex-guarded and
// allocation-free; Record and Recordf carry a string and are for cold events
// (connects, errors).
type Recorder struct {
	name string
	mu   sync.Mutex
	ring []Event
	next int
	n    uint64 // total recorded, for the dump header
}

// NewRecorder returns a recorder labeled name holding the last capacity
// events (minimum 1).
func NewRecorder(name string, capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{name: name, ring: make([]Event, 0, capacity)}
}

// Name returns the recorder's label.
func (r *Recorder) Name() string { return r.name }

// RecordFrame appends one frame event: its direction, message type name (a
// constant string), transaction and peer, either of which may be None.
func (r *Recorder) RecordFrame(dir Dir, typ string, txn int64, peer int) {
	r.add(Event{Dir: dir, Type: typ, Txn: txn, Peer: peer})
}

// Record appends one event with a free-form note.
func (r *Recorder) Record(dir Dir, typ, note string) {
	r.add(Event{Dir: dir, Type: typ, Txn: None, Peer: None, Note: note})
}

// add stamps ev and appends it, evicting the oldest when full.
func (r *Recorder) add(ev Event) {
	ev.At = time.Now()
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[r.next] = ev
	}
	r.next = (r.next + 1) % cap(r.ring)
	r.n++
	r.mu.Unlock()
}

// Recordf is Record with a formatted note.
func (r *Recorder) Recordf(dir Dir, typ, format string, args ...any) {
	r.Record(dir, typ, fmt.Sprintf(format, args...))
}

// Events returns the recorded events oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) < cap(r.ring) {
		return append([]Event(nil), r.ring...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Total returns the number of events ever recorded (including evicted).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dump writes the ring to w, oldest first, with a header naming the
// recorder and how much history survives.
func (r *Recorder) Dump(w io.Writer) {
	evs := r.Events()
	total := r.Total()
	fmt.Fprintf(w, "=== flight recorder [%s]: last %d of %d events ===\n", r.name, len(evs), total)
	for _, ev := range evs {
		fmt.Fprintf(w, "%s %s %-10s %s\n", ev.At.UTC().Format("15:04:05.000000"), ev.Dir, ev.Type, ev.Detail())
	}
}

// InstallSigquit dumps the given recorders to w whenever the process
// receives SIGQUIT. The default kill-with-stack behaviour is suppressed, so
// an operator can poke a live cluster repeatedly; goroutine stacks remain
// available via the debug listener's pprof endpoint.
func InstallSigquit(w io.Writer, recs ...*Recorder) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			for _, r := range recs {
				r.Dump(w)
			}
		}
	}()
}
