package hybrid

// The central execution path of the transaction lifecycle layer: class B
// transactions and shipped class A transactions running at the central
// complex, up to the commit protocol (commit.go).

import (
	"fmt"

	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/trace"
	"hybriddb/internal/workload"
)

// ship sends a transaction's input to the central site. It executes at the
// home site; ownership of t transfers with the message.
func (s *SiteNode) ship(t *TxnRun) {
	t.shipped = true
	if t.spec.Class == workload.ClassA {
		s.shippedOut++
	}
	s.shipStarted++
	s.env.up.Ship(s.idx, t)
}

// OnShip receives a shipped transaction's input — the Ship message — and
// admits it to the central complex.
func (c *CentralNode) OnShip(t *TxnRun) {
	c.shipArrived++
	t.central = c
	c.env.observeAt(c.sched.Now(), obs.Event{Kind: obs.ShipArrive, Txn: t.spec.ID, Site: -1, Aux: float64(t.spec.HomeSite)})
	c.inSystem++
	c.running.Put(t.id(), t)
	c.cpu.Submit(c.env.cfg.InstrOverhead, t.conts.setup)
}

// setupIO runs after the admission CPU burst: the initial I/O, no locks held.
func (c *CentralNode) setupIO(t *TxnRun) {
	scheduleIO(c.sched, c.disks, uint32(t.spec.ID), c.env.cfg.SetupIOTime, t.conts.setupIO)
}

func (c *CentralNode) call(t *TxnRun, i int) {
	if i >= c.env.cfg.CallsPerTxn {
		c.begin(t)
		return
	}
	t.callIdx = i
	c.cpu.Submit(c.env.cfg.InstrPerCall, t.conts.call)
}

// callBody is call callIdx's work after its CPU burst. Under partial
// replication a first-execution reference to a cold element pays the fetch
// delay before its lock request (re-runs find the element cached, mirroring
// the first-run-only data I/O); then lockBody requests the lock.
func (c *CentralNode) callBody(t *TxnRun) {
	env := c.env
	if env.partialRepl && t.attempt == 1 && env.isCold(t.spec.Elements[t.callIdx]) {
		env.observeAt(c.sched.Now(), obs.Event{Kind: obs.ColdFetch, Txn: t.spec.ID, Site: -1, Value: env.cfg.ColdFetchDelay})
		if env.cfg.ColdFetchDelay > 0 {
			c.sched.Schedule(env.cfg.ColdFetchDelay, t.conts.fetched)
			return
		}
		// A zero-delay fetch proceeds inline: scheduling a 0-delay event
		// would reorder same-time events relative to the full-replication
		// engine for no modelled reason.
	}
	c.lockBody(t)
}

// lockBody is the lock acquisition of call callIdx.
func (c *CentralNode) lockBody(t *TxnRun) {
	i := t.callIdx
	elem, mode := t.spec.Elements[i], t.spec.Modes[i]
	if _, held := c.locks.Holds(t.id(), elem); held {
		c.afterLock(t, i)
		return
	}
	c.emit(trace.LockRequest, t.spec.ID, -1, elem, mode.String())
	switch c.locks.Acquire(t.id(), elem, mode, t.conts.grant) {
	case lock.Granted:
		c.emit(trace.LockGranted, t.spec.ID, -1, elem, "")
		c.afterLock(t, i)
	case lock.Queued:
		t.phase = phaseLockWait
		t.lockWaitFrom = c.sched.Now()
		c.emit(trace.LockWaitBegin, t.spec.ID, -1, elem, "")
	case lock.Deadlock:
		c.emit(trace.DeadlockAbort, t.spec.ID, -1, elem, "")
		c.deadlockAbort(t)
	}
}

// granted resumes call callIdx after a queued lock request was granted.
func (c *CentralNode) granted(t *TxnRun) {
	c.env.recordLockWait(t, c.sched, -1)
	c.emit(trace.LockGranted, t.spec.ID, -1, t.spec.Elements[t.callIdx], "")
	c.afterLock(t, t.callIdx)
}

func (c *CentralNode) afterLock(t *TxnRun, i int) {
	if t.attempt == 1 {
		scheduleIO(c.sched, c.disks, t.spec.Elements[i], c.env.cfg.IOTimePerCall, t.conts.io)
		return
	}
	c.call(t, i+1)
}

// restart re-runs an aborted central transaction at the central site,
// retaining its surviving central locks (§3.1).
func (c *CentralNode) restart(t *TxnRun) {
	t.marked = false
	t.attempt++
	t.phase = phaseExecuting
	if c.env.detailed() {
		c.emit(trace.Rerun, t.spec.ID, -1, 0, fmt.Sprintf("attempt %d", t.attempt))
	}
	c.sched.Schedule(c.env.cfg.RestartDelay, t.conts.restart)
}

func (c *CentralNode) deadlockAbort(t *TxnRun) {
	c.env.observeAt(c.sched.Now(), obs.Event{Kind: obs.AbortDeadlockCentral, Txn: t.spec.ID, Site: -1})
	c.locks.ReleaseAll(t.id())
	t.marked = false
	t.attempt++
	t.phase = phaseExecuting
	c.sched.Schedule(c.env.cfg.RestartDelay, t.conts.restart)
}
