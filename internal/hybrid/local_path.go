package hybrid

// The local execution path of the transaction lifecycle layer: class A
// transactions retained at their home site, from setup I/O through database
// calls, lock acquisition, and the local commit point of §2.

import (
	"fmt"

	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/trace"
)

// start admits a transaction to its home site: transaction initiation +
// message handling CPU, then the initial I/O (no locks held during either,
// §3.1).
func (s *SiteNode) start(t *TxnRun) {
	s.inSystem++
	s.running.Put(t.id(), t)
	s.cpu.Submit(s.env.cfg.InstrOverhead, t.conts.setup)
}

// setupIO runs after the admission CPU burst: the initial I/O, no locks held.
func (s *SiteNode) setupIO(t *TxnRun) {
	scheduleIO(s.sched, s.disks, uint32(t.spec.ID), s.env.cfg.SetupIOTime, t.conts.setupIO)
}

// call performs database call i of a locally running transaction: CPU burst,
// then lock acquisition, then (first run only) the I/O.
func (s *SiteNode) call(t *TxnRun, i int) {
	if i >= s.env.cfg.CallsPerTxn {
		s.commit(t)
		return
	}
	t.callIdx = i
	s.cpu.Submit(s.env.cfg.InstrPerCall, t.conts.call)
}

// callBody is call callIdx's work after its CPU burst: the lock acquisition.
func (s *SiteNode) callBody(t *TxnRun) {
	i := t.callIdx
	elem, mode := t.spec.Elements[i], t.spec.Modes[i]
	if _, held := s.locks.Holds(t.id(), elem); held {
		// Re-run retains locks across a cross-site abort (§3.1).
		s.afterLock(t, i)
		return
	}
	s.emit(trace.LockRequest, t.spec.ID, elem, mode.String())
	switch s.locks.Acquire(t.id(), elem, mode, t.conts.grant) {
	case lock.Granted:
		s.emit(trace.LockGranted, t.spec.ID, elem, "")
		s.afterLock(t, i)
	case lock.Queued:
		t.phase = phaseLockWait
		t.lockWaitFrom = s.sched.Now()
		s.emit(trace.LockWaitBegin, t.spec.ID, elem, "")
	case lock.Deadlock:
		s.emit(trace.DeadlockAbort, t.spec.ID, elem, "")
		s.deadlockAbort(t)
	}
}

// granted resumes call callIdx after a queued lock request was granted.
func (s *SiteNode) granted(t *TxnRun) {
	s.env.recordLockWait(t, s.sched, s.idx)
	s.emit(trace.LockGranted, t.spec.ID, t.spec.Elements[t.callIdx], "")
	s.afterLock(t, t.callIdx)
}

func (s *SiteNode) afterLock(t *TxnRun, i int) {
	if t.attempt == 1 {
		// First run: fetch the data from disk. Re-runs find all data in
		// memory (§3.1). conts.io advances to call callIdx+1.
		scheduleIO(s.sched, s.disks, t.spec.Elements[i], s.env.cfg.IOTimePerCall, t.conts.io)
		return
	}
	s.call(t, i+1)
}

// commit is the commit point of a locally running class A transaction (§2):
// abort if marked; otherwise release locks, raise coherence counts on
// updated elements, and propagate the updates asynchronously — completing
// without waiting for the central acknowledgement.
func (s *SiteNode) commit(t *TxnRun) {
	if t.marked {
		s.env.observeAt(s.sched.Now(), obs.Event{Kind: obs.AbortLocalSeized, Txn: t.spec.ID, Site: s.idx})
		s.emit(trace.CrossAbortLocal, t.spec.ID, 0, "seized by central commit")
		s.restart(t)
		return
	}
	// The update set rides the asynchronous update message, so it cannot be
	// scratch: propagate takes ownership, and the buffer returns to the
	// site's pool with the central acknowledgement.
	updates := t.spec.AppendUpdates(s.takeUpdBuf())
	for _, elem := range t.spec.Elements {
		s.locks.Release(t.id(), elem)
	}
	for _, elem := range updates {
		s.locks.IncrCoherence(elem)
	}
	if len(updates) > 0 {
		if s.env.detailed() {
			s.emit(trace.UpdatePropagated, t.spec.ID, 0, fmt.Sprintf("%d elements", len(updates)))
		}
		s.propagate(t.spec.ID, updates)
	} else if updates != nil {
		s.updFree = append(s.updFree, updates)
	}
	s.emit(trace.CommitLocal, t.spec.ID, 0, "")

	now := s.sched.Now()
	rt := now - t.arrivedAt
	t.phase = phaseDone
	s.lastLocalRT = rt
	s.inSystem--
	s.running.Delete(t.id())
	s.completed++
	s.env.observeAt(now, obs.Event{Kind: obs.TxnLocalCommit, Txn: t.spec.ID, Site: s.idx, Value: rt, Aux: float64(t.attempt)})
	s.recycle(t)
}

// restart re-runs a cross-site-aborted local transaction. Locks other than
// the seized ones are retained (§3.1); data is in memory.
func (s *SiteNode) restart(t *TxnRun) {
	t.marked = false
	t.attempt++
	t.phase = phaseExecuting
	if s.env.detailed() {
		s.emit(trace.Rerun, t.spec.ID, 0, fmt.Sprintf("attempt %d", t.attempt))
	}
	s.sched.Schedule(s.env.cfg.RestartDelay, t.conts.restart)
}

// deadlockAbort handles a same-site deadlock: the requester aborts and
// releases all locks (§4.1), then re-runs.
func (s *SiteNode) deadlockAbort(t *TxnRun) {
	s.env.observeAt(s.sched.Now(), obs.Event{Kind: obs.AbortDeadlockLocal, Txn: t.spec.ID, Site: s.idx})
	s.locks.ReleaseAll(t.id())
	t.marked = false
	t.attempt++
	t.phase = phaseExecuting
	s.sched.Schedule(s.env.cfg.RestartDelay, t.conts.restart)
}
