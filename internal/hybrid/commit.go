package hybrid

// The cross-site commit protocol of §2: the optimistic authentication phase
// a centrally running transaction executes against the master sites of the
// data it locked, the ack/nack gathering at the central site, and the final
// commit or abort-and-restart. Four messages — AuthReq, AuthReply, Release,
// Reply — each sent by one node and received by a handler on the other.

import (
	"fmt"

	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/trace"
	"hybriddb/internal/workload"
)

// begin is the commit point of a centrally running transaction: abort if
// invalidated, otherwise run the authentication phase against every master
// site of the data locked (§2).
func (c *CentralNode) begin(t *TxnRun) {
	env := c.env
	if t.marked {
		env.observeAt(c.sched.Now(), obs.Event{Kind: obs.AbortCentralInval, Txn: t.spec.ID, Site: -1})
		c.emit(trace.CrossAbortCentral, t.spec.ID, -1, 0, "invalidated by async update")
		c.restart(t)
		return
	}
	wl := env.cfg.WorkloadConfig()
	// Scratch: consumed by the fan-out loop below, never captured by the
	// messages it sends.
	sites := t.spec.AppendSitesTouched(wl, c.sitesBuf[:0])
	c.sitesBuf = sites
	t.phase = phaseAuthWait
	t.authPending = len(sites)
	t.authNACK = false
	t.authSeized = t.authSeized[:0]
	env.observeAt(c.sched.Now(), obs.Event{Kind: obs.AuthRound, Txn: t.spec.ID, Site: -1, Value: float64(len(sites))})

	// The request payload (ID, elements, modes, snapshot) travels by value:
	// while the run waits in phaseAuthWait the central node owns it, so the
	// site-side handler must not dereference t. The pointer itself rides
	// along only to route the reply, which executes back at central.
	txnID := t.spec.ID
	snap := c.snapshot()
	for _, site := range sites {
		var elems []uint32
		var modes []lock.Mode
		for j, elem := range t.spec.Elements {
			if wl.PartitionOf(elem) == site {
				elems = append(elems, elem)
				modes = append(modes, t.spec.Modes[j])
			}
		}
		if env.detailed() {
			c.emit(trace.AuthRequest, txnID, site, 0, fmt.Sprintf("%d elements", len(elems)))
		}
		env.down.AuthReq(site, t, txnID, elems, modes, snap)
	}
}

// OnAuthReq processes an authentication request at a local site: NACK if
// any element has in-flight asynchronous updates; otherwise seize the locks,
// marking conflicting local holders for abort, and ACK. It touches only
// site-owned state — the transaction ID arrives by value, and t passes
// through untouched to the reply (nil when the request crossed a wire).
// Authentication messages always refresh the site's view of the central
// state (§4.2).
func (s *SiteNode) OnAuthReq(t *TxnRun, txnID int64, elems []uint32, modes []lock.Mode, snap Snapshot) {
	s.refreshView(snap)
	tid := lock.ID(txnID)
	nack := false
	for _, elem := range elems {
		if s.locks.Coherence(elem) != 0 {
			nack = true
			break
		}
	}
	if !nack {
		for j, elem := range elems {
			victims, ok := s.locks.Seize(tid, elem, modes[j])
			if !ok {
				// Unreachable: coherence was checked above and cannot
				// change within one event.
				panic("hybrid: seize failed after coherence check")
			}
			if len(victims) > 0 && s.env.detailed() {
				s.emit(trace.AuthSeized, txnID, elem,
					fmt.Sprintf("%d victims", len(victims)))
			}
			for _, v := range victims {
				s.markVictim(v)
			}
		}
		s.emit(trace.AuthACK, txnID, 0, "")
	} else {
		s.emit(trace.AuthNACK, txnID, 0, "in-flight updates")
	}
	s.env.up.AuthReply(s.idx, t, txnID, nack)
}

// markVictim marks the local holder of a seized lock for abort. A victim ID
// absent from the site's running map is another central transaction's stale
// authentication lock — reachable only when that transaction was already
// invalidated mid-flight (two live central transactions cannot both pass
// their conflicting central lock phase), so it is already marked and needs
// nothing from us. Not consulting the central running map keeps this
// handler site-pure.
func (s *SiteNode) markVictim(v lock.ID) {
	if vt, ok := s.running.Get(v); ok {
		vt.marked = true
	}
}

// OnAuthReply folds one site's authentication answer into the transaction;
// when the last reply is in, the final commit gate of §2 decides: every site
// positive and the central locks not invalidated meanwhile.
func (c *CentralNode) OnAuthReply(t *TxnRun, site int, nack bool) {
	if nack {
		t.authNACK = true
	} else {
		t.authSeized = append(t.authSeized, site)
	}
	t.authPending--
	if t.authPending > 0 {
		return
	}
	if t.authNACK || t.marked {
		if t.authNACK {
			c.env.observeAt(c.sched.Now(), obs.Event{Kind: obs.AbortCentralNACK, Txn: t.spec.ID, Site: -1})
		} else {
			c.env.observeAt(c.sched.Now(), obs.Event{Kind: obs.AbortCentralInval, Txn: t.spec.ID, Site: -1})
		}
		if c.env.detailed() {
			reason := "invalidated during authentication"
			if t.authNACK {
				reason = "authentication NACK"
			}
			c.emit(trace.CrossAbortCentral, t.spec.ID, -1, 0, reason)
		}
		c.releaseAuthLocks(t, c.snapshot())
		c.restart(t)
		return
	}
	c.finish(t)
}

// releaseAuthLocks tells every site that seized locks for t to release them.
// The message carries the ID, not the run: the run is pooled, and by the time
// the message arrives the transaction may have restarted, committed, and been
// recycled for a different transaction.
func (c *CentralNode) releaseAuthLocks(t *TxnRun, snap Snapshot) {
	for _, site := range t.authSeized {
		c.env.down.Release(site, t.spec.ID, snap)
	}
	t.authSeized = t.authSeized[:0]
}

// OnRelease frees the authentication locks a central transaction seized at
// this site (its commit or its abort).
func (s *SiteNode) OnRelease(txnID int64, snap Snapshot) {
	if s.env.cfg.Feedback == FeedbackAllMessages {
		s.refreshView(snap)
	}
	s.locks.ReleaseAll(lock.ID(txnID))
}

// finish finalizes a central transaction: commit messages release the
// authentication locks and install the updates at the involved sites, the
// central locks are released, and the completion reply travels to the origin
// where the response time is recorded. The reply piggybacks the snapshot
// taken before the central release, like the releases sent with it.
func (c *CentralNode) finish(t *TxnRun) {
	snap := c.snapshot()
	c.releaseAuthLocks(t, snap)
	c.locks.ReleaseAll(t.id())
	c.inSystem--
	c.running.Delete(t.id())
	t.phase = phaseDone
	c.emit(trace.CommitCentral, t.spec.ID, -1, 0, "")
	c.env.observeAt(c.sched.Now(), obs.Event{Kind: obs.TxnCentralCommit, Txn: t.spec.ID, Site: -1, Aux: float64(t.attempt)})

	c.replyStarted++
	c.env.down.Reply(t.spec.HomeSite, t, snap)
}

// OnReply completes a shipped transaction at its home site: the Reply hands
// ownership of t back. It is the last touch — the seized-lock releases were
// sent earlier at the same instant over equal-delay links, so FIFO
// tie-breaking guarantees they have already run.
func (s *SiteNode) OnReply(t *TxnRun, snap Snapshot) {
	s.replyArrived++
	s.emit(trace.ReplyDelivered, t.spec.ID, 0, "")
	if s.env.cfg.Feedback == FeedbackAllMessages {
		s.refreshView(snap)
	}
	rt := s.sched.Now() - t.arrivedAt
	s.completed++
	classB := t.spec.Class != workload.ClassA
	if !classB {
		s.shippedOut--
		s.lastShippedRT = rt
	}
	s.env.observeAt(s.sched.Now(), obs.Event{Kind: obs.TxnReply, Txn: t.spec.ID, ClassB: classB, Value: rt, Site: s.idx})
	s.recycle(t)
}
