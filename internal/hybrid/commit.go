package hybrid

// The two commit points of §2 — where the tiers' executions differ — and the
// cross-site commit protocol behind the central one: the optimistic
// authentication phase a centrally running transaction executes against the
// master sites of the data it locked, the ack/nack gathering at the central
// site, and the final commit or abort-and-restart. Four messages — AuthReq,
// AuthReply, Release, Reply — each sent by one node and received by a
// handler on the other, each naming the transaction by id.

import (
	"fmt"

	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/trace"
	"hybriddb/internal/workload"
)

// commitPoint of a locally running class A transaction (§2): abort if
// marked; otherwise release locks, raise coherence counts on updated
// elements, and propagate the updates asynchronously — completing without
// waiting for the central acknowledgement.
func (s *SiteNode) commitPoint(t *txnRun) {
	if t.marked {
		s.observe(obs.Event{Kind: obs.AbortLocalSeized, Txn: t.spec.ID})
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

	rt := s.sched.Now() - t.arrivedAt
	s.lastLocalRT = rt
	s.inSystem--
	s.running.Delete(t.id())
	s.observe(obs.Event{Kind: obs.TxnLocalCommit, Txn: t.spec.ID, Value: rt, Aux: float64(t.attempt)})
	s.recycleSpec(t.spec)
	s.freeRun(t)
}

// recycleSpec returns a completed transaction's input to the site's pool
// when it is the engine's own (generator-produced, reused through NextInto);
// replayed and submitted specs belong to their caller and must survive the
// run. It executes on the home site's executor, as every completion does.
func (s *SiteNode) recycleSpec(spec *workload.Txn) {
	if s.env.poolSpecs {
		s.specFree = append(s.specFree, spec)
	}
}

// commitPoint of a centrally running transaction: abort if invalidated,
// otherwise run the authentication phase against every master site of the
// data locked (§2).
func (c *CentralNode) commitPoint(t *txnRun) {
	env := c.env
	if t.marked {
		c.abort(t, obs.AbortCentralInval, "invalidated by async update")
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
	c.observe(obs.Event{Kind: obs.AuthRound, Txn: t.spec.ID, Value: float64(len(sites))})

	txnID := t.spec.ID
	snap := c.snapshot()
	// Each request carries its site's stretch of the run's buffers, capped so
	// no receiver can append into the next site's.
	elems, modes := t.authElems[:0], t.authModes[:0]
	for _, site := range sites {
		start := len(elems)
		for j, elem := range t.spec.Elements {
			if wl.PartitionOf(elem) == site {
				elems = append(elems, elem)
				modes = append(modes, t.spec.Modes[j])
			}
		}
		end := len(elems)
		if env.detailed() {
			env.emitDetail(c.sched.Now(), trace.AuthRequest, txnID, site, 0, fmt.Sprintf("%d elements", end-start))
		}
		env.down.Send(Message{Kind: MsgAuthReq, Site: site, Txn: txnID, Elems: elems[start:end:end], Modes: modes[start:end:end], Snap: snap})
	}
	t.authElems, t.authModes = elems, modes
}

// OnAuthReq processes an authentication request at a local site: NACK if
// any element has in-flight asynchronous updates; otherwise seize the locks,
// marking conflicting local holders for abort, and ACK. Authentication
// messages always refresh the site's view of the central state (§4.2).
func (s *SiteNode) OnAuthReq(txnID int64, elems []uint32, modes []lock.Mode, snap Snapshot) {
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
	s.env.up.Send(Message{Kind: MsgAuthReply, Site: s.idx, Txn: txnID, NACK: nack})
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
// positive and the central locks not invalidated meanwhile. An answer naming
// no transaction that awaits one — a stray, duplicate or late message —
// changes nothing and reports false.
func (c *CentralNode) OnAuthReply(site int, txnID int64, nack bool) bool {
	t, ok := c.running.Get(lock.ID(txnID))
	if !ok || t.phase != phaseAuthWait || t.authPending == 0 {
		return false
	}
	if nack {
		t.authNACK = true
	} else {
		t.authSeized = append(t.authSeized, site)
	}
	t.authPending--
	if t.authPending > 0 {
		return true
	}
	switch {
	case t.authNACK:
		c.abort(t, obs.AbortCentralNACK, "authentication NACK")
	case t.marked:
		c.abort(t, obs.AbortCentralInval, "invalidated during authentication")
	default:
		c.finish(t)
	}
	return true
}

// abort re-runs a transaction that failed its commit point, after telling
// the sites that seized locks for it (none before authentication) to let go.
func (c *CentralNode) abort(t *txnRun, cause obs.Kind, reason string) {
	c.observe(obs.Event{Kind: cause, Txn: t.spec.ID})
	c.emit(trace.CrossAbortCentral, t.spec.ID, 0, reason)
	c.releaseAuthLocks(t, c.snapshot())
	c.restart(t)
}

// releaseAuthLocks tells every site that seized locks for t to release them.
func (c *CentralNode) releaseAuthLocks(t *txnRun, snap Snapshot) {
	for _, site := range t.authSeized {
		c.env.down.Send(Message{Kind: MsgRelease, Site: site, Txn: t.spec.ID, Snap: snap})
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
func (c *CentralNode) finish(t *txnRun) {
	snap := c.snapshot()
	c.releaseAuthLocks(t, snap)
	c.locks.ReleaseAll(t.id())
	c.inSystem--
	c.running.Delete(t.id())
	c.emit(trace.CommitCentral, t.spec.ID, 0, "")
	c.observe(obs.Event{Kind: obs.TxnCentralCommit, Txn: t.spec.ID, Aux: float64(t.attempt)})
	c.env.down.Send(Message{Kind: MsgReply, Site: t.spec.HomeSite, Txn: t.spec.ID, Snap: snap})
	c.freeRun(t)
}

// OnReply completes a shipped transaction at its home site. It is the last
// touch — the seized-lock releases were sent earlier at the same instant over
// equal-delay links, so FIFO tie-breaking guarantees they have already run. A
// reply naming no transaction parked here — a stray or duplicate message —
// changes nothing and reports false.
func (s *SiteNode) OnReply(txnID int64, snap Snapshot) bool {
	if s.parked == nil {
		return false
	}
	p, ok := s.parked.Take(lock.ID(txnID))
	if !ok {
		return false
	}
	s.emit(trace.ReplyDelivered, txnID, 0, "")
	if s.env.cfg.Feedback == FeedbackAllMessages {
		s.refreshView(snap)
	}
	rt := s.sched.Now() - p.arrivedAt
	classB := p.spec.Class != workload.ClassA
	if !classB {
		s.shippedOut--
		s.lastShippedRT = rt
	}
	s.observe(obs.Event{Kind: obs.TxnReply, Txn: txnID, ClassB: classB, Value: rt})
	s.recycleSpec(p.spec)
	return true
}
