package hybrid

// The propagation layer: asynchronous update flow from local commits to the
// central site (with optional batching), central-side invalidation and
// application, and the piggybacked central-state snapshots whose feedback
// routingState consumes. Two messages: Update up, UpdateAck down.

import (
	"fmt"

	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/trace"
)

// refreshView installs a newer central-state snapshot at a local site.
func (s *SiteNode) refreshView(snap Snapshot) {
	if snap.At >= s.view.At {
		s.view = snap
	}
}

// snapshot captures the central state for piggybacking on a message being
// sent now.
func (c *CentralNode) snapshot() Snapshot {
	return Snapshot{
		Queue:    c.cpu.QueueLength(),
		InSystem: c.inSystem,
		Locks:    c.locks.LocksHeld(),
		At:       c.sched.Now(),
	}
}

// propagate ships a committed transaction's updates to the central site —
// immediately, batched per Config.UpdateBatchWindow, or accumulated to the
// site's next epoch boundary per Config.EpochLength (the modes are mutually
// exclusive; Validate enforces it). Batching keeps per-link FIFO ordering:
// the flush sends one message on the same uplink that unbatched commits
// would use.
// Propagate owns the updates slice it is handed: an unbatched send parks it
// in the message and the acknowledgement returns it to the site's pool; a
// batched send folds it into the pending batch and frees it immediately.
func (s *SiteNode) propagate(txnID int64, updates []uint32) {
	cfg := &s.env.cfg
	switch {
	case cfg.UpdateBatchWindow > 0:
		s.buffer(updates, cfg.UpdateBatchWindow)
	case cfg.EpochLength > 0:
		// Epoch-batched (STAR-style) propagation: accumulate only; the
		// site's epoch ticker (armEpochTick) drains the batch.
		s.stash(updates)
	default:
		s.env.up.Send(Message{Kind: MsgUpdate, Site: s.idx, Txn: txnID, Elems: updates})
	}
}

// stash folds one commit's updates into the site's pending batch and frees
// the commit's own slice back to the site pool.
func (s *SiteNode) stash(updates []uint32) {
	if s.pendingUpdates == nil {
		s.pendingUpdates = s.takeUpdBuf()
	}
	s.pendingUpdates = append(s.pendingUpdates, updates...)
	s.updFree = append(s.updFree, updates)
}

// buffer stashes one commit's updates and, on the batch's first commit,
// schedules the flush after the given delay (the batch-window mode).
func (s *SiteNode) buffer(updates []uint32, delay float64) {
	s.stash(updates)
	if s.flushPending {
		return
	}
	s.flushPending = true
	s.sched.Schedule(delay, func() {
		s.flushPending = false
		s.flushPendingUpdates()
	})
}

// armEpochTick starts the site's epoch ticker when Config.EpochLength is
// set: every EpochLength seconds of the site's own executor, send the pending
// batch and re-arm. Boundaries are built by repeated addition from the
// executor's zero, so the sites of one simulation tick on one shared grid —
// the Engine arms them in ascending index, which is also the (edge index)
// order a sharded round merge gives their same-instant central arrivals — and
// a live site ticks on its own process clock. The closure is built once: a
// tick allocates nothing.
func (s *SiteNode) armEpochTick() {
	epoch := s.env.cfg.EpochLength
	if epoch <= 0 {
		return
	}
	var tick func()
	tick = func() {
		s.flushPendingUpdates()
		s.sched.Schedule(epoch, tick)
	}
	s.sched.Schedule(epoch, tick)
}

// flushPendingUpdates sends the site's pending batch, if any, as one Update
// message.
func (s *SiteNode) flushPendingUpdates() {
	if len(s.pendingUpdates) == 0 {
		return
	}
	batch := s.pendingUpdates
	s.pendingUpdates = nil
	s.env.up.Send(Message{Kind: MsgUpdate, Site: s.idx, Elems: batch})
}

// OnUpdate processes an asynchronous update message from a local site:
// invalidate central locks on the updated elements (mark holders for abort),
// install the update, and acknowledge so the site can lower its coherence
// counts.
func (c *CentralNode) OnUpdate(site int, txnID int64, updates []uint32) {
	if c.env.cfg.UpdateProcInstr > 0 {
		// Message handling consumes central CPU before the update applies
		// (per message, which is what batching amortises).
		c.cpu.Submit(c.env.cfg.UpdateProcInstr, func() { c.applyNow(site, txnID, updates) })
		return
	}
	c.applyNow(site, txnID, updates)
}

// applyNow performs the §2 invalidate-apply-acknowledge step of an
// asynchronous update message.
func (c *CentralNode) applyNow(site int, txnID int64, updates []uint32) {
	for _, elem := range updates {
		// Scratch walk; HoldersAppend copies the IDs out, so the releases
		// below cannot invalidate the iteration.
		c.holdersBuf = c.locks.HoldersAppend(elem, c.holdersBuf[:0])
		for _, holder := range c.holdersBuf {
			if vt, ok := c.running.Get(holder); ok {
				vt.marked = true
			}
			c.locks.Release(holder, elem)
		}
	}
	if c.env.detailed() {
		c.emit(trace.UpdateApplied, 0, 0, fmt.Sprintf("%d elements from site %d", len(updates), site))
	}
	c.observe(obs.Event{Kind: obs.UpdateApplied, Txn: txnID, Value: float64(len(updates)), Aux: float64(site)})
	c.env.down.Send(Message{Kind: MsgUpdateAck, Site: site, Elems: updates, Snap: c.snapshot()})
}

// OnUpdateAck lowers the coherence counts an acknowledged update raised and
// takes the update buffer back into this site's pool.
func (s *SiteNode) OnUpdateAck(updates []uint32, snap Snapshot) {
	if s.env.cfg.Feedback == FeedbackAllMessages {
		s.refreshView(snap)
	}
	for _, elem := range updates {
		s.locks.DecrCoherence(elem)
	}
	s.emit(trace.UpdateAcked, 0, 0, "")
	if updates != nil {
		s.updFree = append(s.updFree, updates)
	}
}
