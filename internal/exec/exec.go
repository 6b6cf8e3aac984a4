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
// in time order (ties in scheduling order on the simulator; best-effort on a
// wall clock), never concurrently with other closures of the same executor.
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
// posted closures serially in FIFO order, and Schedule posts through a real
// timer. Network receive goroutines Post closures onto the loop, which gives
// a live node the same one-closure-at-a-time execution model a simulated
// partition has on its event queue.
type Loop struct {
	epoch time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	stopped bool

	done chan struct{}
}

// NewLoop starts a loop whose clock reads zero now.
func NewLoop() *Loop {
	l := &Loop{epoch: time.Now(), done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

func (l *Loop) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.stopped {
			l.cond.Wait()
		}
		if len(l.queue) == 0 { // stopped and drained
			l.mu.Unlock()
			return
		}
		fn := l.queue[0]
		copy(l.queue, l.queue[1:])
		l.queue[len(l.queue)-1] = nil
		l.queue = l.queue[:len(l.queue)-1]
		l.mu.Unlock()
		fn()
	}
}

// Now implements Clock: wall-clock seconds since the loop started.
func (l *Loop) Now() float64 { return time.Since(l.epoch).Seconds() }

// Post enqueues fn to run on the loop goroutine, after closures already
// queued. Safe from any goroutine, including the loop itself (the closure
// runs after the current one returns, like a zero-delay simulator event).
// Posts after Stop are dropped; the return value reports whether the
// closure was accepted.
func (l *Loop) Post(fn func()) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return false
	}
	l.queue = append(l.queue, fn)
	l.cond.Signal()
	return true
}

// Schedule implements Scheduler: fn runs on the loop goroutine after delay
// seconds of wall time (immediately-next for delay <= 0). Timers that fire
// after Stop are dropped.
func (l *Loop) Schedule(delay float64, fn func()) {
	if delay <= 0 {
		l.Post(fn)
		return
	}
	time.AfterFunc(time.Duration(delay*float64(time.Second)), func() { l.Post(fn) })
}

// Stop drains closures already queued, then stops the loop and blocks until
// the loop goroutine exits. Work posted (or timers firing) after Stop is
// dropped. Stop must not be called from the loop goroutine itself.
func (l *Loop) Stop() {
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	<-l.done
}
