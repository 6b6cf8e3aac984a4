package hybrid

// Transaction run state: the per-transaction phase machine the execution
// path (path.go) and the commit protocol (commit.go) drive, and the
// per-partition pool it recycles through.

import (
	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// txnPhase says what a resident transaction is waiting for, if anything.
type txnPhase uint8

const (
	phaseExecuting txnPhase = iota // a CPU burst, an I/O or a restart delay
	phaseLockWait                  // a queued lock request
	phaseAuthWait                  // authentication answers
)

// txnRun is the runtime state of one execution of a transaction at one
// partition. A run never leaves the partition that allocated it: only that
// partition's tables, servers and scheduler ever hold a reference, and every
// message names the transaction by id.
type txnRun struct {
	owner     *partition // set once, when the pool allocates the run
	spec      *workload.Txn
	arrivedAt float64 // at the home site (local executions only)
	attempt   int     // 1 on the first execution
	phase     txnPhase

	// marked is the §2 "marked for abort" flag, set by a committed
	// conflicting action at the other tier (authentication seizure for
	// local transactions, asynchronous-update invalidation for central
	// ones). Checked at commit.
	marked bool

	// Authentication state (central executions only). authElems/authModes
	// hold one round's AuthReq lists, site after site; each message carries
	// its site's sub-slice. The next round, an abort or freeing the run only
	// happens once every answer is in, so every request of the round has
	// been delivered before the buffers are refilled.
	authPending int
	authNACK    bool
	authSeized  []int // sites where locks were seized and must be released
	authElems   []uint32
	authModes   []lock.Mode

	lockWaitFrom float64 // set while phase == phaseLockWait

	// callIdx is the database call the continuation chain is executing.
	callIdx int
	// conts holds the run's pre-bound continuations, allocated once per
	// pooled object and preserved across recycling. The per-call hot path
	// (CPU burst -> lock acquisition -> I/O, times CallsPerTxn) schedules
	// only these stored funcs, so it allocates no closures.
	conts txnConts
}

// txnConts is the set of pre-bound lifecycle continuations of one txnRun,
// each a call into the owning partition's execution path.
type txnConts struct {
	setup   func() // after the admission CPU burst: the setup I/O
	calls   func() // after the setup I/O or RestartDelay: run from call 0
	call    func() // after call callIdx's CPU burst: its lock acquisition
	grant   func() // a waited-for lock was granted
	io      func() // after call callIdx's I/O: advance to the next call
	fetched func() // after a cold-fetch delay: call callIdx's lock request
}

func (t *txnRun) id() lock.ID { return lock.ID(t.spec.ID) }

// takeRun pops a run off the partition's free list, keeping the allocations
// it carries (the authentication buffers and the bound continuations), or
// allocates and binds the pool's next object, and initializes it for a first
// execution of spec.
func (p *partition) takeRun(spec *workload.Txn) *txnRun {
	var t *txnRun
	if n := len(p.txnFree); n > 0 {
		t = p.txnFree[n-1]
		p.txnFree = p.txnFree[:n-1]
		*t = txnRun{owner: t.owner, authSeized: t.authSeized[:0],
			authElems: t.authElems[:0], authModes: t.authModes[:0], conts: t.conts}
	} else {
		t = &txnRun{owner: p}
		t.bindContinuations()
	}
	t.spec = spec
	t.attempt = 1
	return t
}

// freeRun returns a finished run to the pool. Callers guarantee no live
// reference remains: the run is off the running map and the lock table, and
// no continuation of it is scheduled.
func (p *partition) freeRun(t *txnRun) {
	t.spec = nil
	p.txnFree = append(p.txnFree, t)
}

// bindContinuations allocates a run's lifecycle continuations, once per
// pooled object.
func (t *txnRun) bindContinuations() {
	t.conts = txnConts{
		setup:   func() { t.owner.setupIO(t) },
		calls:   func() { t.owner.call(t, 0) },
		call:    func() { t.owner.callBody(t) },
		grant:   func() { t.owner.granted(t) },
		io:      func() { t.owner.call(t, t.callIdx+1) },
		fetched: func() { t.owner.lockBody(t) },
	}
}
