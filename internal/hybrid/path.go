package hybrid

// The execution path of the transaction lifecycle layer, written once for
// both tiers. §2 ships a transaction's input to the central complex, which
// then runs what a home site runs — admission CPU and setup I/O, then
// CallsPerTxn calls of CPU burst, lock acquisition and first-run I/O — so
// the path is a method set of partition, the state both SiteNode and
// CentralNode embed. The tiers differ in three things only, all fixed when
// the partition is built: its index (a site's, or -1), whether a
// first-execution reference may pay a cold fetch before its lock request
// (central under partial replication), and the commit point the last call
// leads to (commit.go: the embedding node's commitPoint).

import (
	"fmt"

	"hybriddb/internal/cpu"
	"hybriddb/internal/exec"
	"hybriddb/internal/flatmap"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/trace"
)

// partition is one tier's servers, lock table and resident transactions.
// Every field is owned by the partition's executor: its lifecycle events
// execute there and cross-tier interactions arrive as messages. In a sharded
// run that executor is a shard worker; the sequential engine keeps the same
// ownership discipline on a single queue, a live node on its event loop.
type partition struct {
	env   *nodeEnv
	idx   int           // the site's index; -1 at the central complex
	sched exec.Dispatch // the executor this partition's events run on
	cpu   *cpu.Server
	disks []*cpu.Server // empty: pure-delay I/O (the paper's assumption)
	locks *lock.Manager

	inSystem int                            // transactions present in any phase
	running  *flatmap.Map[lock.ID, *txnRun] // the same transactions, by id

	// txnFree recycles this partition's runs. A run is taken here, executes
	// here and returns here, so a sharded run never contends on the pool and
	// no message ever holds a run.
	txnFree []*txnRun

	coldFetch bool // cold elements pay ColdFetchDelay before the lock request
	node      tier // the node this partition is embedded in

	// counts tallies the lifecycle events this partition emitted (observe).
	// The ...AtWarmup fields snapshot it and the CPU's busy time at the
	// measurement barrier; the Result reads the differences.
	counts         obs.Counts
	countsAtWarmup obs.Counts
	busyAtWarmup   float64
}

// tier is what the shared execution path asks of the node it runs at.
type tier interface {
	// commitPoint is where a run's last database call leads.
	commitPoint(t *txnRun)
}

func (p *partition) init(env *nodeEnv, idx int, sched exec.Scheduler, mips float64, disks int, node tier) {
	p.env = env
	p.idx = idx
	p.sched = exec.NewDispatch(sched)
	p.cpu = cpu.NewServer(sched, mips)
	// Disks are unit-rate servers whose "instructions" are microseconds, so
	// Submit(seconds*1e6) serves for exactly seconds.
	p.disks = make([]*cpu.Server, disks)
	for i := range p.disks {
		p.disks[i] = cpu.NewServer(sched, 1)
	}
	p.locks = lock.NewManager()
	p.running = flatmap.New[lock.ID, *txnRun](16)
	p.node = node
}

// InSystem returns the transactions present at this partition in any phase:
// class A executions at a site, shipped and class B ones at central.
func (p *partition) InSystem() int { return p.inSystem }

// QueueLength returns the partition CPU's queue length, job in service
// included.
func (p *partition) QueueLength() int { return p.cpu.QueueLength() }

// LocksHeld returns the locks held in this partition's table.
func (p *partition) LocksHeld() int { return p.locks.LocksHeld() }

// Running reports whether a transaction of this id is executing here.
func (p *partition) Running(txn int64) bool {
	_, ok := p.running.Get(lock.ID(txn))
	return ok
}

// Counts returns the lifecycle events this partition has emitted, by kind.
func (p *partition) Counts() obs.Counts { return p.counts }

// observe counts a lifecycle event of this partition and emits it on the
// bus, stamped with the partition's index and clock.
func (p *partition) observe(ev obs.Event) {
	p.counts.Add(ev)
	ev.At, ev.Site = p.sched.Now(), p.idx
	p.env.bus.Emit(ev)
}

// markWarmup opens the measurement window: the Result counts events and
// CPU busy time from here.
func (p *partition) markWarmup() {
	p.busyAtWarmup = p.cpu.BusyTime()
	p.countsAtWarmup = p.counts
}

// addWindow adds the events this partition counted since markWarmup to n.
func (p *partition) addWindow(n *obs.Counts) {
	for k := range n {
		n[k] += p.counts[k] - p.countsAtWarmup[k]
	}
}

// emit records a protocol-detail event at this partition. The HasDetail
// guard keeps the hot loop free of event construction when tracing is off.
func (p *partition) emit(kind trace.Kind, txn int64, elem uint32, note string) {
	if p.env.bus.HasDetail() {
		p.env.emitDetail(p.sched.Now(), kind, txn, p.idx, elem, note)
	}
}

// io performs one I/O of the given duration keyed to elem: a pure delay
// under the paper's assumption, or an FCFS wait at the disk holding the
// element when a disk bank is configured.
func (p *partition) io(elem uint32, seconds float64, done func()) {
	if len(p.disks) == 0 {
		p.sched.Schedule(seconds, done)
		return
	}
	p.disks[int(elem)%len(p.disks)].Submit(seconds*1e6, done)
}

// start admits a transaction to the partition: transaction initiation +
// message handling CPU, then the initial I/O (no locks held during either,
// §3.1).
func (p *partition) start(t *txnRun) {
	p.inSystem++
	p.running.Put(t.id(), t)
	p.cpu.Submit(p.env.cfg.InstrOverhead, t.conts.setup)
}

// setupIO runs after the admission CPU burst: the initial I/O, no locks held.
func (p *partition) setupIO(t *txnRun) {
	p.io(uint32(t.spec.ID), p.env.cfg.SetupIOTime, t.conts.calls)
}

// call performs database call i: CPU burst, then lock acquisition, then
// (first run only) the I/O. Past the last call lies the commit point.
func (p *partition) call(t *txnRun, i int) {
	if i >= p.env.cfg.CallsPerTxn {
		p.node.commitPoint(t)
		return
	}
	t.callIdx = i
	p.cpu.Submit(p.env.cfg.InstrPerCall, t.conts.call)
}

// callBody is call callIdx's work after its CPU burst. Under partial
// replication a first-execution reference to a cold element pays the fetch
// delay before its lock request (re-runs find the element cached, mirroring
// the first-run-only data I/O); then lockBody requests the lock.
func (p *partition) callBody(t *txnRun) {
	env := p.env
	if p.coldFetch && t.attempt == 1 && env.isCold(t.spec.Elements[t.callIdx]) {
		p.observe(obs.Event{Kind: obs.ColdFetch, Txn: t.spec.ID, Value: env.cfg.ColdFetchDelay})
		if env.cfg.ColdFetchDelay > 0 {
			p.sched.Schedule(env.cfg.ColdFetchDelay, t.conts.fetched)
			return
		}
		// A zero-delay fetch proceeds inline: scheduling a 0-delay event
		// would reorder same-time events relative to the full-replication
		// engine for no modelled reason.
	}
	p.lockBody(t)
}

// lockBody is the lock acquisition of call callIdx.
func (p *partition) lockBody(t *txnRun) {
	i := t.callIdx
	elem, mode := t.spec.Elements[i], t.spec.Modes[i]
	if _, held := p.locks.Holds(t.id(), elem); held {
		// Re-run retains locks across a cross-site abort (§3.1).
		p.afterLock(t, i)
		return
	}
	p.emit(trace.LockRequest, t.spec.ID, elem, mode.String())
	switch p.locks.Acquire(t.id(), elem, mode, t.conts.grant) {
	case lock.Granted:
		p.emit(trace.LockGranted, t.spec.ID, elem, "")
		p.afterLock(t, i)
	case lock.Queued:
		t.phase = phaseLockWait
		t.lockWaitFrom = p.sched.Now()
		p.emit(trace.LockWaitBegin, t.spec.ID, elem, "")
	case lock.Deadlock:
		p.emit(trace.DeadlockAbort, t.spec.ID, elem, "")
		p.deadlockAbort(t)
	}
}

// granted resumes call callIdx after a queued lock request was granted. The
// wait is attributed to this partition, whose lock table blocked the
// transaction, and stamped with its clock.
func (p *partition) granted(t *txnRun) {
	if t.phase == phaseLockWait {
		p.observe(obs.Event{Kind: obs.LockWaitEnd, Txn: t.spec.ID, Value: p.sched.Now() - t.lockWaitFrom})
	}
	t.phase = phaseExecuting
	p.emit(trace.LockGranted, t.spec.ID, t.spec.Elements[t.callIdx], "")
	p.afterLock(t, t.callIdx)
}

func (p *partition) afterLock(t *txnRun, i int) {
	if t.attempt == 1 {
		// First run: fetch the data from disk. Re-runs find all data in
		// memory (§3.1). conts.io advances to call callIdx+1.
		p.io(t.spec.Elements[i], p.env.cfg.IOTimePerCall, t.conts.io)
		return
	}
	p.call(t, i+1)
}

// restart re-runs a transaction aborted at its commit point. Locks other
// than the seized or invalidated ones are retained (§3.1); data is in memory.
func (p *partition) restart(t *txnRun) {
	if p.env.detailed() {
		p.emit(trace.Rerun, t.spec.ID, 0, fmt.Sprintf("attempt %d", t.attempt+1))
	}
	p.rerun(t)
}

// deadlockAbort handles a same-partition deadlock: the requester aborts and
// releases all locks (§4.1), then re-runs.
func (p *partition) deadlockAbort(t *txnRun) {
	kind := obs.AbortDeadlockLocal
	if p.idx < 0 {
		kind = obs.AbortDeadlockCentral
	}
	p.observe(obs.Event{Kind: kind, Txn: t.spec.ID})
	p.locks.ReleaseAll(t.id())
	p.rerun(t)
}

// rerun schedules the next attempt from call 0 after RestartDelay.
func (p *partition) rerun(t *txnRun) {
	t.marked = false
	t.attempt++
	t.phase = phaseExecuting
	p.sched.Schedule(p.env.cfg.RestartDelay, t.conts.calls)
}
