package hybrid

// Shared transaction-lifecycle state: the per-transaction phase machine that
// both execution paths (local_path.go, central_path.go) and the commit
// protocol (commit.go) drive.

import (
	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// txnPhase tracks where a transaction is in its lifecycle, for invariant
// checking and abort bookkeeping.
type txnPhase uint8

const (
	phaseSetup txnPhase = iota + 1
	phaseExecuting
	phaseLockWait
	phaseAuthWait
	phaseDone
)

// TxnRun is the runtime state of one transaction. Outside this package it is
// an opaque handle: a Transport implementation receives it on Ship, AuthReq,
// AuthReply and Reply and hands it — or, across a wire, the run its
// transaction id resolves to — to the receiving node's handler.
type TxnRun struct {
	spec      *workload.Txn
	arrivedAt float64
	shipped   bool // executing at the central site
	attempt   int  // 1 on the first execution
	phase     txnPhase

	// The nodes whose lifecycle methods the continuations dispatch to: home
	// for a local execution, central (set on arrival there) for a shipped
	// one.
	home    *SiteNode
	central *CentralNode

	// marked is the §2 "marked for abort" flag, set by a committed
	// conflicting action at the other tier (authentication seizure for
	// local transactions, asynchronous-update invalidation for central
	// ones). Checked at commit.
	marked bool

	// Authentication state (central executions only).
	authPending int
	authNACK    bool
	authSeized  []int // sites where locks were seized and must be released

	lockWaitFrom float64 // set while phase == phaseLockWait

	// callIdx is the database call the continuation chain is executing.
	callIdx int
	// conts holds the run's pre-bound continuations, allocated once per
	// pooled object and preserved across recycling. The per-call hot path
	// (CPU burst -> lock acquisition -> I/O, times CallsPerTxn) schedules
	// only these stored funcs, so it allocates no closures; each dispatches
	// on t.shipped, which is fixed for the whole execution attempt before
	// any continuation is scheduled.
	conts txnConts
}

// txnConts is the set of pre-bound lifecycle continuations of one TxnRun.
type txnConts struct {
	setup   func() // after the admission CPU burst: the setup I/O
	setupIO func() // after the setup I/O: begin the database calls
	call    func() // after call callIdx's CPU burst: its lock acquisition
	grant   func() // a waited-for lock was granted
	io      func() // after call callIdx's I/O: advance to the next call
	restart func() // re-run from call 0 after RestartDelay
	fetched func() // after a cold-fetch delay: call callIdx's lock request
}

func (t *TxnRun) id() lock.ID { return lock.ID(t.spec.ID) }

// Spec returns the transaction's input.
func (t *TxnRun) Spec() *workload.Txn { return t.spec }

// takeRun pops a run off a free list, keeping the allocations it carries
// (the seized-site slice and the bound continuations), or allocates and
// binds the pool's next object.
func takeRun(free *[]*TxnRun) *TxnRun {
	if n := len(*free); n > 0 {
		t := (*free)[n-1]
		*free = (*free)[:n-1]
		seized := t.authSeized[:0]
		conts := t.conts
		*t = TxnRun{authSeized: seized, conts: conts}
		return t
	}
	t := &TxnRun{}
	t.bindContinuations()
	return t
}

// newTxnRun takes a run object off the home site's free list (or allocates
// the pool's first generation) and initializes it for an arriving
// transaction. The pool is per site so a sharded run never contends on it;
// a run's ownership follows the transaction (home shard, then central's on
// a shipped execution, then back home with the completion reply).
func (s *SiteNode) newTxnRun(spec *workload.Txn) *TxnRun {
	t := takeRun(&s.txnFree)
	t.home = s
	t.spec = spec
	t.arrivedAt = s.sched.Now()
	t.attempt = 1
	t.phase = phaseSetup
	return t
}

// AdoptRun wraps a shipped transaction's input in a run from this node's own
// pool, ready for OnShip — the receive side of Ship on a wire, where the home
// site's run cannot make the trip. The Downlink's Reply returns it with
// FreeRun once the completion is encoded.
func (c *CentralNode) AdoptRun(spec *workload.Txn) *TxnRun {
	t := takeRun(&c.txnFree)
	t.spec = spec
	t.shipped = true
	t.attempt = 1
	t.phase = phaseSetup
	return t
}

// FreeRun returns an adopted run to this node's pool. Callers guarantee no
// live reference remains, exactly as for a site's recycle.
func (c *CentralNode) FreeRun(t *TxnRun) {
	t.spec = nil
	c.txnFree = append(c.txnFree, t)
}

// AwaitingAuth resolves a transaction id to its run if that run is waiting
// for authentication answers — the receive side of AuthReply on a wire. A
// stray or late answer resolves to nil.
func (c *CentralNode) AwaitingAuth(txn int64) *TxnRun {
	if t, ok := c.running.Get(lock.ID(txn)); ok && t.phase == phaseAuthWait && t.authPending > 0 {
		return t
	}
	return nil
}

// bindContinuations allocates a run's lifecycle continuations, once per
// pooled object. Each dispatches to the execution path chosen for the
// current attempt via t.shipped: Admit fixes it before the first
// continuation is scheduled, and restarts never change tiers.
func (t *TxnRun) bindContinuations() {
	t.conts = txnConts{
		setup: func() {
			if t.shipped {
				t.central.setupIO(t)
			} else {
				t.home.setupIO(t)
			}
		},
		setupIO: func() {
			t.phase = phaseExecuting
			if t.shipped {
				t.central.call(t, 0)
			} else {
				t.home.call(t, 0)
			}
		},
		call: func() {
			if t.shipped {
				t.central.callBody(t)
			} else {
				t.home.callBody(t)
			}
		},
		grant: func() {
			if t.shipped {
				t.central.granted(t)
			} else {
				t.home.granted(t)
			}
		},
		io: func() {
			if t.shipped {
				t.central.call(t, t.callIdx+1)
			} else {
				t.home.call(t, t.callIdx+1)
			}
		},
		restart: func() {
			if t.shipped {
				t.central.call(t, 0)
			} else {
				t.home.call(t, 0)
			}
		},
		// Cold fetches happen only on the central path (the local path reads
		// its own partition's primary copy), so no dispatch on t.shipped.
		fetched: func() { t.central.lockBody(t) },
	}
}

// recycle returns a completed run to its home site's pool. Callers must
// guarantee no live reference remains — the run is off every running map
// and every closure that could still fire captures the transaction ID by
// value, never the run object — and that the call executes on the home
// site's executor (completion always does: local commits finish at home,
// shipped commits recycle in the delivered reply).
func (s *SiteNode) recycle(t *TxnRun) {
	if s.env.poolSpecs {
		// Generator-produced specs are pooled for NextInto; replayed and
		// submitted specs belong to their caller and must survive the run.
		s.specFree = append(s.specFree, t.spec)
	}
	t.spec = nil
	s.txnFree = append(s.txnFree, t)
}

// recordLockWait closes a blocking lock wait (if one was open) and returns
// the transaction to the executing phase. The wait is attributed to the
// partition whose lock table blocked the transaction — site is its index, -1
// for the central complex — and stamped with that partition's clock (the one
// the closing event runs on).
func (env *nodeEnv) recordLockWait(t *TxnRun, sched exec.Dispatch, site int) {
	if t.phase == phaseLockWait {
		now := sched.Now()
		env.observeAt(now, obs.Event{Kind: obs.LockWaitEnd, Txn: t.spec.ID, Site: site, Value: now - t.lockWaitFrom})
	}
	t.phase = phaseExecuting
}
