// Package exec defines the execution seams the transaction core runs
// against. The lifecycle layers of internal/hybrid express every "read the
// clock" and "do this later" against the two narrow interfaces below, so the
// same state machine can run on either executor:
//
//   - the discrete-event simulator (internal/sim), adapted by SimSched:
//     virtual time, deterministic, bit-exact — the model;
//   - a wall-clock serialized Loop (this package): real time, real timers —
//     the runtime of the live networked engine (internal/cluster).
//
// Both executors share the single-threaded discipline the core relies on:
// scheduled work runs one closure at a time on the owning executor, never
// concurrently, so the lock tables and per-site state need no locking of
// their own.
package exec

import (
	"sync"
	"time"

	"hybriddb/internal/sim"
)

// Clock reads the current time of the executor, in seconds. Simulated
// executors return virtual time; the wall-clock Loop returns seconds since
// its epoch.
type Clock interface {
	Now() float64
}

// Scheduler is the seam the transaction core schedules against: run fn after
// delay seconds on the owning executor. Scheduled closures execute serially
// in time order, ties in scheduling order (on a wall clock: as early after
// their deadline as the executor gets to them), never concurrently with other
// closures of the same executor.
type Scheduler interface {
	Clock
	Schedule(delay float64, fn func())
}

// SimSched adapts a *sim.Simulator to the Scheduler seam. It is a named
// conversion of the simulator itself — Sim(s) is a pointer cast, not a
// wrapper allocation — so storing one in a Scheduler field boxes a pointer
// and the hot path pays only the interface dispatch.
type SimSched sim.Simulator

// Sim returns s as a Scheduler implementation.
func Sim(s *sim.Simulator) *SimSched { return (*SimSched)(s) }

// Simulator returns the underlying simulator.
func (s *SimSched) Simulator() *sim.Simulator { return (*sim.Simulator)(s) }

// Now implements Clock with the simulator's virtual clock.
func (s *SimSched) Now() float64 { return (*sim.Simulator)(s).Now() }

// Schedule implements Scheduler on the simulator's event queue. The event
// handle is dropped: core code that needs cancellation keeps its own state.
func (s *SimSched) Schedule(delay float64, fn func()) {
	(*sim.Simulator)(s).Schedule(delay, fn)
}

// Dispatch is a devirtualized Scheduler handle. The hybrid lifecycle and
// cpu.Server sit on the simulator's hottest path; holding the seam as a
// bare interface there costs a dynamic dispatch per clock read and per
// scheduled burst, which benchmarks as a double-digit engine slowdown.
// Dispatch keeps the seam without the toll: when the executor is the
// simulator it calls the concrete *sim.Simulator (inlinable — the same
// machine code as before the seam existed); any other executor pays the
// one interface dispatch it always would.
type Dispatch struct {
	sim *sim.Simulator // non-nil selects the concrete fast path
	s   Scheduler
}

// NewDispatch wraps s, unwrapping the simulator fast path when s is the
// SimSched adapter.
func NewDispatch(s Scheduler) Dispatch {
	if ss, ok := s.(*SimSched); ok {
		return Dispatch{sim: (*sim.Simulator)(ss), s: s}
	}
	return Dispatch{s: s}
}

// Now reads the executor's clock.
func (d Dispatch) Now() float64 {
	if d.sim != nil {
		return d.sim.Now()
	}
	return d.s.Now()
}

// Schedule runs fn after delay seconds on the executor.
func (d Dispatch) Schedule(delay float64, fn func()) {
	if d.sim != nil {
		d.sim.Schedule(delay, fn)
		return
	}
	d.s.Schedule(delay, fn)
}

// Loop is the wall-clock executor of the live engine: one goroutine runs
// posted closures serially in FIFO order and fires scheduled closures from a
// calendar it owns. Network receive goroutines Post closures onto the loop,
// which gives a live node the same one-closure-at-a-time execution model a
// simulated partition has on its event queue.
//
// Post and Schedule append to one mutex-guarded inbox. Each pass of the loop
// goroutine swaps the whole inbox out, runs its posts in order and moves its
// timers into the calendar — a sim.Simulator used as a priority queue keyed
// by wall-clock deadline, so timers fire in (deadline, schedule order) like
// simulator events — then fires every timer that has come due, and parks on
// one reusable runtime timer armed for the earliest deadline. A pass runs
// only what was queued when it began, so neither posts nor due timers can
// starve the other.
type Loop struct {
	epoch time.Time

	mu      sync.Mutex
	inbox   []item
	parked  bool // the loop goroutine is blocked in park, or about to be
	stopped bool

	wake chan struct{} // cap 1: a poster's nudge to a parked loop

	// cal and sleep belong to the loop goroutine.
	cal   *sim.Simulator
	sleep *time.Timer

	done chan struct{}
}

// item is one inbox entry: a post (due 0) or a timer due at that loop time.
type item struct {
	due float64
	fn  func()
}

// NewLoop starts a loop whose clock reads zero now.
func NewLoop() *Loop {
	l := &Loop{
		epoch: time.Now(),
		wake:  make(chan struct{}, 1),
		cal:   sim.New(),
		sleep: time.NewTimer(time.Hour),
		done:  make(chan struct{}),
	}
	l.sleep.Stop()
	go l.run()
	return l
}

func (l *Loop) run() {
	defer close(l.done)
	var batch []item
	// wait is the time to the earliest pending timer as the last firing
	// phase left it: negative with none pending, zero to force another look.
	wait := -1.0
	for {
		l.mu.Lock()
		batch, l.inbox = l.inbox, batch[:0]
		stopped := l.stopped
		parked := len(batch) == 0 && !stopped && wait != 0
		l.parked = parked
		l.mu.Unlock()
		if parked {
			l.park(wait)
			wait = 0 // whatever woke us, the calendar may hold a due timer
			continue
		}

		for i, it := range batch {
			batch[i] = item{}
			switch {
			case it.due == 0:
				it.fn()
			case !stopped:
				// A timer queued behind one that has since fired may carry an
				// earlier deadline than the calendar's clock; it is due now.
				l.cal.ScheduleAt(max(it.due, l.cal.Now()), it.fn)
			}
		}
		if stopped {
			return // queued posts drained, pending timers dropped
		}
		wait = l.fireDue()
	}
}

// fireDue runs every timer whose deadline has passed and returns the seconds
// until the earliest one left, negative when none is. Timers these closures
// schedule land in the inbox, not the calendar, so the call is bounded. The
// clock is read only when a timer is waiting and the last reading does not
// already cover its deadline.
func (l *Loop) fireDue() float64 {
	for now := 0.0; ; l.cal.Step() {
		due, ok := l.cal.Peek()
		if !ok {
			return -1
		}
		if due > now {
			if now = l.Now(); due > now {
				return due - now
			}
		}
	}
}

// park blocks the loop goroutine until a poster nudges it or, with wait not
// negative, that many seconds have passed.
func (l *Loop) park(wait float64) {
	if wait < 0 {
		<-l.wake
		return
	}
	l.sleep.Reset(time.Duration(wait * float64(time.Second)))
	select {
	case <-l.wake:
		if !l.sleep.Stop() {
			// Fired while we were being woken. Take the tick if it is already
			// in the channel; one that lands later only costs the next park a
			// pass that finds nothing due.
			select {
			case <-l.sleep.C:
			default:
			}
		}
	case <-l.sleep.C:
	}
}

// Now implements Clock: wall-clock seconds since the loop started.
func (l *Loop) Now() float64 { return float64(time.Since(l.epoch)) / float64(time.Second) }

// enqueue appends one inbox entry and wakes the loop goroutine if it is
// parked; a running loop picks the entry up on its next pass unprompted.
func (l *Loop) enqueue(it item) bool {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return false
	}
	l.inbox = append(l.inbox, it)
	nudge := l.parked
	l.parked = false
	l.mu.Unlock()
	if nudge {
		l.nudge()
	}
	return true
}

// nudge wakes a parked loop. A token already in the channel (a nudge that
// raced with the sleep timer) wakes the next park just as well, and the loop
// reads the inbox after it wakes, so the send never needs to block.
func (l *Loop) nudge() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Post enqueues fn to run on the loop goroutine, after closures already
// queued. Safe from any goroutine, including the loop itself (the closure
// runs after the current one returns, like a zero-delay simulator event).
// Posts after Stop are dropped; the return value reports whether the
// closure was accepted.
func (l *Loop) Post(fn func()) bool { return l.enqueue(item{fn: fn}) }

// Schedule implements Scheduler: fn runs on the loop goroutine after delay
// seconds of wall time (immediately-next for delay <= 0), timers in deadline
// order with equal deadlines in scheduling order. Safe from any goroutine.
// Timers still pending at Stop are dropped.
func (l *Loop) Schedule(delay float64, fn func()) {
	if delay <= 0 {
		l.Post(fn)
		return
	}
	l.enqueue(item{due: l.Now() + delay, fn: fn})
}

// Stop drains closures already queued, then stops the loop and blocks until
// the loop goroutine exits. Work posted after Stop and timers that had not
// fired are dropped. Stop must not be called from the loop goroutine itself.
func (l *Loop) Stop() {
	l.mu.Lock()
	nudge := l.parked
	l.parked = false
	l.stopped = true
	l.mu.Unlock()
	if nudge {
		l.nudge()
	}
	<-l.done
}
