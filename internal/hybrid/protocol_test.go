package hybrid

import (
	"bytes"
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/routing"
	"hybriddb/internal/sim"
	"hybriddb/internal/trace"
	"hybriddb/internal/workload"
)

// eventLog collects every protocol-detail event's kind, grouped by
// transaction.
type eventLog struct {
	byTxn map[int64][]trace.Kind
}

func (l *eventLog) OnEvent(e obs.Event) {
	if e.Kind != obs.TraceDetail || e.Txn == 0 {
		return
	}
	l.byTxn[e.Txn] = append(l.byTxn[e.Txn], e.Trace)
}

func (*eventLog) WantDetail() bool { return true }

func contains(kinds []trace.Kind, k trace.Kind) bool {
	for _, kind := range kinds {
		if kind == k {
			return true
		}
	}
	return false
}

// indexOf returns the first position of k, or -1.
func indexOf(kinds []trace.Kind, k trace.Kind) int {
	for i, kind := range kinds {
		if kind == k {
			return i
		}
	}
	return -1
}

// runTracedContended runs a contended mixed workload with full tracing.
func runTracedContended(t *testing.T) *eventLog {
	t.Helper()
	cfg := testConfig()
	cfg.Warmup, cfg.Duration = 0, 150
	cfg.ArrivalRatePerSite = 2.0
	cfg.PWrite = 0.5
	cfg.Lockspace = 2000
	e, err := New(cfg, routing.NewStatic(0.5, 9))
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{byTxn: make(map[int64][]trace.Kind)}
	e.Subscribe(log)
	e.Run()
	return log
}

// TestProtocolSequenceVictim verifies the §2 victim lifecycle: a local
// transaction whose lock is seized by a central commit aborts at its commit
// point, re-runs, and (if it completes) commits locally afterwards.
func TestProtocolSequenceVictim(t *testing.T) {
	log := runTracedContended(t)
	verified := 0
	for txn, kinds := range log.byTxn {
		abortAt := indexOf(kinds, trace.CrossAbortLocal)
		if abortAt < 0 {
			continue
		}
		rerunAt := indexOf(kinds[abortAt:], trace.Rerun)
		if rerunAt < 0 {
			t.Errorf("txn %d cross-aborted without a rerun: %v", txn, kinds)
			continue
		}
		if commitAt := indexOf(kinds, trace.CommitLocal); commitAt >= 0 && commitAt < abortAt {
			t.Errorf("txn %d committed before its cross abort: %v", txn, kinds)
		}
		verified++
	}
	if verified == 0 {
		t.Skip("no local victims in this run; contention too low")
	}
}

// TestProtocolSequenceCentralCommit verifies that every central commit was
// preceded by at least one authentication request and followed by exactly
// one reply delivery.
func TestProtocolSequenceCentralCommit(t *testing.T) {
	log := runTracedContended(t)
	checked := 0
	for txn, kinds := range log.byTxn {
		commitAt := indexOf(kinds, trace.CommitCentral)
		if commitAt < 0 {
			continue
		}
		authAt := indexOf(kinds, trace.AuthRequest)
		if authAt < 0 || authAt > commitAt {
			t.Errorf("txn %d committed centrally without prior authentication: %v", txn, kinds)
		}
		replies := 0
		for _, k := range kinds {
			if k == trace.ReplyDelivered {
				replies++
			}
		}
		// Zero replies is legitimate when the horizon cuts the run with
		// the reply message still in flight; more than one never is.
		if replies > 1 {
			t.Errorf("txn %d delivered %d replies: %v", txn, replies, kinds)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no central commits traced")
	}
}

// TestProtocolSequenceNACKRetries verifies that a NACKed central transaction
// re-runs and authenticates again rather than committing on the failed
// round.
func TestProtocolSequenceNACKRetries(t *testing.T) {
	log := runTracedContended(t)
	verified := 0
	for txn, kinds := range log.byTxn {
		nackAt := indexOf(kinds, trace.AuthNACK)
		if nackAt < 0 {
			continue
		}
		commitAt := indexOf(kinds, trace.CommitCentral)
		if commitAt >= 0 && commitAt < nackAt {
			continue // commit from an earlier successful round is impossible; skip defensively
		}
		if commitAt >= 0 {
			// Committed eventually: there must be a second auth round
			// between the NACK and the commit.
			laterAuth := indexOf(kinds[nackAt:], trace.AuthRequest)
			if laterAuth < 0 {
				t.Errorf("txn %d committed after NACK without re-authentication: %v", txn, kinds)
			}
		}
		verified++
	}
	if verified == 0 {
		t.Skip("no NACKs in this run")
	}
}

// TestProtocolEveryCompletionHasSingleCommit verifies no transaction commits
// twice (one commit-local or one reply-delivered per transaction).
func TestProtocolEveryCompletionHasSingleCommit(t *testing.T) {
	log := runTracedContended(t)
	for txn, kinds := range log.byTxn {
		commits := 0
		for _, k := range kinds {
			if k == trace.CommitLocal || k == trace.ReplyDelivered {
				commits++
			}
		}
		if commits > 1 {
			t.Errorf("txn %d completed %d times: %v", txn, commits, kinds)
		}
	}
}

// TestProtocolUpdatesOnlyAfterCommit verifies asynchronous updates are only
// propagated by committing transactions (never by aborted attempts).
func TestProtocolUpdatesOnlyAfterCommit(t *testing.T) {
	log := runTracedContended(t)
	seen := false
	for txn, kinds := range log.byTxn {
		upAt := indexOf(kinds, trace.UpdatePropagated)
		if upAt < 0 {
			continue
		}
		seen = true
		if !contains(kinds, trace.CommitLocal) {
			t.Errorf("txn %d propagated updates but never committed: %v", txn, kinds)
		}
	}
	if !seen {
		t.Fatal("no update propagation traced")
	}
}

// recWire is a Sender that records what a standalone node sends.
type recWire struct{ sent []Message }

func (w *recWire) Send(m Message) { w.sent = append(w.sent, m) }

// of returns the recorded messages of one kind, in send order.
func (w *recWire) of(k MsgKind) []Message {
	var out []Message
	for _, m := range w.sent {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

// kindCount counts lifecycle events by kind.
type kindCount map[obs.Kind]int

func (k kindCount) OnEvent(ev obs.Event) { k[ev.Kind]++ }

// TestStandaloneNodeTracesOnRequestOnly: off means off. A standalone node —
// what a live process runs — given only plain observers builds no
// protocol-detail event and renders no note; a detail observer among them is
// the one switch.
func TestStandaloneNodeTracesOnRequestOnly(t *testing.T) {
	cfg, s := standaloneConfig(), sim.New()
	spec := workload.NewGenerator(cfg.WorkloadConfig(), 3).Next(0)
	for _, tc := range []struct {
		observer obs.Observer
		detail   bool
	}{{kindCount{}, false}, {&detailCount{}, true}} {
		site, err := NewSiteNode(cfg, 0, exec.Sim(s), routing.AlwaysLocal{}, &recWire{}, tc.observer)
		if err != nil {
			t.Fatal(err)
		}
		central, err := NewCentralNode(cfg, exec.Sim(s), &recWire{}, tc.observer)
		if err != nil {
			t.Fatal(err)
		}
		if site.env.bus.HasDetail() != tc.detail || central.env.bus.HasDetail() != tc.detail {
			t.Errorf("observer %T: HasDetail() = %v at the site, %v at central, want %v",
				tc.observer, site.env.bus.HasDetail(), central.env.bus.HasDetail(), tc.detail)
		}
		site.Admit(spec)
		if counts, plain := tc.observer.(kindCount); plain && (counts[obs.TxnArrive] != 1 || counts[obs.TraceDetail] != 0) {
			t.Errorf("a plain observer saw %d arrivals and %d protocol-detail events, want 1 and 0", counts[obs.TxnArrive], counts[obs.TraceDetail])
		}
	}
}

func standaloneConfig() Config {
	cfg := DefaultConfig()
	cfg.Sites = 1 // every element is mastered at site 0: one AuthReq a round
	return cfg
}

// TestSiteNodeIgnoresStrayReplies: a Reply naming no transaction parked at
// the site — never shipped, or already answered — is reported to the caller
// and changes nothing, the piggybacked view included.
func TestSiteNodeIgnoresStrayReplies(t *testing.T) {
	wire, events, s := &recWire{}, kindCount{}, sim.New()
	node, err := NewSiteNode(standaloneConfig(), 0, exec.Sim(s), routing.AlwaysLocal{}, wire, events)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.NewGenerator(standaloneConfig().WorkloadConfig(), 3).Next(0)
	spec.Class = workload.ClassB // ships whatever the strategy
	node.Admit(spec)
	if ships := len(wire.of(MsgShip)); ships != 1 || node.away() != 1 {
		t.Fatalf("class B admission sent %d ships and parked %d", ships, node.away())
	}
	state := func() [6]uint64 {
		return [6]uint64{node.counts[obs.TxnReply], node.counts.Completed(), uint64(node.away()),
			uint64(events[obs.TxnReply]), uint64(len(node.txnFree)), uint64(node.view.Queue)}
	}
	fresh := Snapshot{Queue: 9, At: 1}

	before := state()
	if node.OnReply(spec.ID+1, fresh) {
		t.Error("a reply for an unknown transaction was accepted")
	}
	if after := state(); after != before {
		t.Errorf("a stray reply changed the site: %v -> %v", before, after)
	}
	if !node.OnReply(spec.ID, fresh) {
		t.Fatal("the reply for the shipped transaction was refused")
	}
	if events[obs.TxnReply] != 1 || node.counts.Completed() != 1 || node.away() != 0 {
		t.Errorf("after the reply: %d TxnReply events, %d completed, %d parked", events[obs.TxnReply], node.counts.Completed(), node.away())
	}
	before = state()
	if node.OnReply(spec.ID, Snapshot{Queue: 4, At: 2}) {
		t.Error("a duplicate reply was accepted")
	}
	if after := state(); after != before {
		t.Errorf("a duplicate reply changed the site: %v -> %v", before, after)
	}
	if len(node.txnFree) != 0 {
		t.Errorf("a shipped transaction drew %d runs from its home site's pool", len(node.txnFree))
	}
}

// TestCentralNodeIgnoresStrayAuthReplies: an AuthReply is folded in only
// while its transaction awaits one. An answer for an unknown id, one arriving
// after a NACK already sent the transaction back to re-run, and one arriving
// after the commit are each reported and change nothing.
func TestCentralNodeIgnoresStrayAuthReplies(t *testing.T) {
	cfg := standaloneConfig()
	wire, events, s := &recWire{}, kindCount{}, sim.New()
	node, err := NewCentralNode(cfg, exec.Sim(s), wire, events)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.NewGenerator(cfg.WorkloadConfig(), 3).Next(0)
	node.OnShip(spec)
	run, _ := node.running.Get(lock.ID(spec.ID))
	type state struct {
		run                       txnRunState
		inSystem, locks, releases int
		aborts, commits           int
	}
	snapshot := func() state {
		return state{run.state(), node.inSystem, node.locks.LocksHeld(), len(wire.of(MsgRelease)),
			events[obs.AbortCentralNACK], events[obs.TxnCentralCommit]}
	}
	unchangedBy := func(why string, txn int64) {
		t.Helper()
		before := snapshot()
		if node.OnAuthReply(0, txn, false) {
			t.Errorf("%s: the answer was accepted", why)
		}
		if after := snapshot(); after != before {
			t.Errorf("%s: the answer changed central: %+v -> %+v", why, before, after)
		}
	}

	unchangedBy("before the first round", spec.ID) // still executing its calls
	s.RunUntil(5)
	if reqs := len(wire.of(MsgAuthReq)); reqs != 1 || run.phase != phaseAuthWait {
		t.Fatalf("%d auth requests, phase %d: the transaction never reached its commit point", reqs, run.phase)
	}
	unchangedBy("unknown id", spec.ID+1)
	if !node.OnAuthReply(0, spec.ID, true) {
		t.Fatal("the NACK of the open round was refused")
	}
	if events[obs.AbortCentralNACK] != 1 || run.attempt != 2 {
		t.Fatalf("after the NACK: %d aborts, attempt %d", events[obs.AbortCentralNACK], run.attempt)
	}
	unchangedBy("late answer after the NACK-restart", spec.ID)
	s.RunUntil(10)
	if reqs := len(wire.of(MsgAuthReq)); reqs != 2 {
		t.Fatalf("%d auth requests after the re-run, want 2", reqs)
	}
	if !node.OnAuthReply(0, spec.ID, false) {
		t.Fatal("the ACK of the second round was refused")
	}
	if replies, releases := len(wire.of(MsgReply)), len(wire.of(MsgRelease)); replies != 1 || node.InSystem() != 0 || releases != 1 {
		t.Fatalf("after the ACK: %d replies, %d in system, %d releases", replies, node.InSystem(), releases)
	}
	if len(node.txnFree) != 1 || node.txnFree[0] != run {
		t.Error("the finished run did not return to central's own pool")
	}
	unchangedBy("answer after the commit", spec.ID)
}

// txnRunState is what of a run a protocol message may change.
type txnRunState struct {
	phase       txnPhase
	attempt     int
	authPending int
	authNACK    bool
	seized      int
	marked      bool
}

func (t *txnRun) state() txnRunState {
	return txnRunState{t.phase, t.attempt, t.authPending, t.authNACK, len(t.authSeized), t.marked}
}

// TestAuthReqStretchesAreCapped: commitPoint carves every site's element and
// mode lists from two buffers the run keeps, so each AuthReq must carry a
// stretch whose capacity ends where it does — a receiver appending to one
// site's list cannot write into the next site's.
func TestAuthReqStretchesAreCapped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites = 3
	wl := cfg.WorkloadConfig()
	gen := workload.NewGenerator(wl, 3)
	spec := gen.Next(0)
	for len(spec.AppendSitesTouched(wl, nil)) < 2 {
		spec = gen.Next(0)
	}
	wire, s := &recWire{}, sim.New()
	node, err := NewCentralNode(cfg, exec.Sim(s), wire)
	if err != nil {
		t.Fatal(err)
	}
	node.OnShip(spec)
	s.RunUntil(10)

	reqs := wire.of(MsgAuthReq)
	if want := len(spec.AppendSitesTouched(wl, nil)); len(reqs) != want {
		t.Fatalf("%d auth requests for a transaction touching %d sites", len(reqs), want)
	}
	carried := 0
	for _, m := range reqs {
		if len(m.Elems) == 0 || len(m.Modes) != len(m.Elems) {
			t.Errorf("site %d: %d elements, %d modes", m.Site, len(m.Elems), len(m.Modes))
		}
		if cap(m.Elems) != len(m.Elems) || cap(m.Modes) != len(m.Modes) {
			t.Errorf("site %d: elements len %d cap %d, modes len %d cap %d: the stretch is not capped",
				m.Site, len(m.Elems), cap(m.Elems), len(m.Modes), cap(m.Modes))
		}
		for _, elem := range m.Elems {
			if p := wl.PartitionOf(elem); p != m.Site {
				t.Errorf("site %d was asked to authenticate element %d of partition %d", m.Site, elem, p)
			}
		}
		carried += len(m.Elems)
	}
	if carried != len(spec.Elements) {
		t.Errorf("the requests carried %d elements of %d", carried, len(spec.Elements))
	}
}

// TestRunsStayWithTheirPartition is the one-owner rule on the sharded core
// (run it under -race): after a replayed trace has drained, every run sits
// in the pool of the partition that allocated it — none migrated with a
// message, none is in two pools — every pool holds only idle runs, and no
// site still parks a shipped transaction.
func TestRunsStayWithTheirPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites = 6
	cfg.Shards = 3
	cfg.SelfCheck = true
	cfg.Lockspace = 3000 // conflicts: seizures, NACKs and re-runs recycle runs too
	cfg.PWrite = 0.5
	cfg.Warmup, cfg.Duration = 0, 400
	var buf bytes.Buffer
	const n = 2400
	if err := workload.Capture(&buf, cfg.WorkloadConfig(), 5, 2.0, n); err != nil {
		t.Fatal(err)
	}
	txns, gaps, err := workload.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, routing.NewStatic(0.5, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetTrace(txns, gaps); err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !e.Parallel() {
		t.Fatal("the sharded core did not engage")
	}
	if res.Completed != n || res.InSystemAtEnd+res.InFlightShip+res.InFlightReply != 0 {
		t.Fatalf("the run did not drain: %d of %d completed, %d resident, %d+%d in flight",
			res.Completed, n, res.InSystemAtEnd, res.InFlightShip, res.InFlightReply)
	}
	if res.TotalAborts() == 0 {
		t.Error("no aborts: the configuration is too gentle to recycle a re-run")
	}

	pooledAt := make(map[*txnRun]int)
	check := func(p *partition) {
		if p.running.Len() != 0 || p.inSystem != 0 {
			t.Errorf("partition %d still holds %d runs (inSystem %d)", p.idx, p.running.Len(), p.inSystem)
		}
		if len(p.txnFree) == 0 {
			t.Errorf("partition %d executed nothing", p.idx)
		}
		for _, r := range p.txnFree {
			if r.owner != p {
				t.Errorf("partition %d freed a run partition %d allocated", p.idx, r.owner.idx)
			}
			if at, dup := pooledAt[r]; dup {
				t.Errorf("one run is pooled twice, at partitions %d and %d", at, p.idx)
			}
			pooledAt[r] = p.idx
			if r.spec != nil {
				t.Errorf("partition %d pools a run still holding transaction %d", p.idx, r.spec.ID)
			}
		}
	}
	for _, s := range e.sites {
		check(&s.partition)
		if s.away() != 0 {
			t.Errorf("site %d still parks %d shipped transactions", s.idx, s.away())
		}
	}
	check(&e.central.partition)
}
