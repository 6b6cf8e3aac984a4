package cluster

// The live local site: accepts transaction submissions from load
// generators, classifies and routes them (ship vs. local) with a real
// internal/routing strategy over the site's stale view of central, runs the
// local execution path, answers the central commit protocol's
// authentication requests, and propagates committed updates. The wall-clock
// twin of the simulator's localPath plus the site-side handlers of
// commitProtocol and propagator; every handler runs on the node's
// exec.Loop.

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"

	"hybriddb/internal/cpu"
	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/lock"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/obsx/logx"
	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// stxn is the site-side runtime state of one locally executing
// transaction.
type stxn struct {
	spec    *workload.Txn
	attempt int
	marked  bool // seized by a central commit (§2)
}

// pendingSubmit routes a transaction's eventual result back to the load
// generator connection that submitted it.
type pendingSubmit struct {
	conn      *netx.Conn
	reqID     uint64
	arrivedAt float64
	shipped   bool
}

// SiteStats is a loop-consistent snapshot of a site's counters.
type SiteStats struct {
	Generated        uint64
	CompletedLocal   uint64
	RepliesDelivered uint64
	ShippedA         uint64
	ShippedB         uint64
	LocalA           uint64
	AbortsSeized     uint64
	AbortsDeadlock   uint64
	ShipSendErrors   uint64
	InSystem         int
}

// Site is one live local site.
type Site struct {
	cfg hybrid.Config
	wl  workload.Config
	idx int

	strategy routing.Strategy

	loop  *exec.Loop
	cpu   *cpu.Server
	disks []*cpu.Server
	locks *lock.Manager

	inSystem   int
	shippedOut int
	running    map[lock.ID]*stxn
	pending    map[int64]pendingSubmit

	view   netx.Snapshot
	viewAt float64

	lastLocalRT   float64
	lastShippedRT float64

	stats SiteStats

	log   logx.Logger
	reg   *metrics.Registry
	wm    *wireMetrics
	net   *netx.Stats
	fr    *flight.Recorder
	spans *spans.Recorder

	// rtLocal / rtShipped are observed inline on the loop at completion —
	// the live twins of the simulator's per-route RT histograms.
	rtLocal   *metrics.Histogram
	rtShipped *metrics.Histogram

	up *netx.Client // uplink to central

	ln     net.Listener
	wg     sync.WaitGroup
	connMu sync.Mutex
	conns  map[*netx.Conn]struct{}
	closed bool
}

// StartSite boots site idx: it listens for load generators on addr and
// maintains a reconnecting uplink to the central node. The strategy routes
// this site's class A arrivals; stateful strategies should be forked per
// site (routing.SiteLocal) by the caller, as the simulator does. A site is
// one event loop, so it takes its own instance of a routing.LoopLocal
// strategy, as the simulator does per loop; several sites may therefore be
// started with one such value.
func StartSite(cfg hybrid.Config, idx int, centralAddr, addr string, strategy routing.Strategy) (*Site, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= cfg.Sites {
		return nil, fmt.Errorf("cluster: site index %d out of range [0,%d)", idx, cfg.Sites)
	}
	if strategy == nil {
		strategy = routing.AlwaysLocal{}
	}
	if ll, ok := strategy.(routing.LoopLocal); ok {
		strategy = ll.ForLoop()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	loop := exec.NewLoop()
	reg := metrics.NewRegistry()
	s := &Site{
		cfg:      cfg,
		wl:       cfg.WorkloadConfig(),
		idx:      idx,
		strategy: strategy,
		loop:     loop,
		cpu:      cpu.NewServer(loop, cfg.LocalMIPS),
		disks:    newDisks(loop, cfg.DisksPerSite),
		locks:    lock.NewManager(),
		running:  make(map[lock.ID]*stxn),
		pending:  make(map[int64]pendingSubmit),
		log:      logx.New("site " + strconv.Itoa(idx)),
		reg:      reg,
		wm:       newWireMetrics(reg),
		net:      &netx.Stats{},
		fr:       flight.NewRecorder("site "+strconv.Itoa(idx), flightCapacity),
		spans:    spans.NewRecorder("site "+strconv.Itoa(idx), spans.SitePid(idx), 0),
		ln:       ln,
		conns:    make(map[*netx.Conn]struct{}),
	}
	s.registerMetrics()
	// Each (re)connect sends a fresh Hello stamped with the current loop
	// clock; the central's HelloAck closes the NTP-style offset estimate.
	s.up = netx.DialLoop(centralAddr, s.dispatchCentral, func(c *netx.Conn) error {
		s.fr.Recordf(flight.Note, "connect", "uplink to %s", centralAddr)
		s.log.Debugf("uplink connected to %s", centralAddr)
		hello := netx.AppendHello(nil, netx.Hello{Site: uint32(idx), T0: s.loop.Now()})
		if err := c.Send(netx.MsgHello, 0, hello); err != nil {
			return err
		}
		s.wm.Out(netx.MsgHello)
		return nil
	}, netx.Options{Stats: s.net})
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Metrics returns the node's registry, for a debug listener or a test
// scrape.
func (s *Site) Metrics() *metrics.Registry { return s.reg }

// Flight returns the node's flight recorder of recent wire events.
func (s *Site) Flight() *flight.Recorder { return s.fr }

// Spans returns the node's live span recorder (local timebase, stamped with
// the handshake's clock-offset estimate).
func (s *Site) Spans() *spans.Recorder { return s.spans }

// registerMetrics wires the registry: transport gauges read straight from
// atomics, per-route RT histograms observed on the loop, and one scrape
// hook mirroring the loop-confined counters so the site conservation
// invariant generated == completed_local + replies_delivered + in_flight
// holds exactly in every exposition.
func (s *Site) registerMetrics() {
	registerNetStats(s.reg, s.net)
	s.rtLocal = s.reg.Histogram("site_rt_seconds", "transaction response time by route", 0, 30, 3000, metrics.L("route", "local"))
	s.rtShipped = s.reg.Histogram("site_rt_seconds", "transaction response time by route", 0, 30, 3000, metrics.L("route", "shipped"))
	s.reg.GaugeFunc("site_clock_offset_seconds", "estimated central-minus-local clock offset from the Hello handshake", s.spans.ClockOffset)
	generated := s.reg.Counter("site_generated_total", "transactions submitted to this site")
	completedLocal := s.reg.Counter("site_completed_local_total", "transactions committed on the local path")
	replies := s.reg.Counter("site_replies_delivered_total", "shipped-transaction completions delivered to load generators")
	routeLocal := s.reg.Counter("site_route_decisions_total", "routing decisions by outcome", metrics.L("route", "local"))
	routeShip := s.reg.Counter("site_route_decisions_total", "routing decisions by outcome", metrics.L("route", "ship"))
	routeShipB := s.reg.Counter("site_route_decisions_total", "routing decisions by outcome", metrics.L("route", "ship_b"))
	abortSeized := s.reg.Counter("site_aborts_total", "local aborts by cause", metrics.L("cause", "seized"))
	abortDead := s.reg.Counter("site_aborts_total", "local aborts by cause", metrics.L("cause", "deadlock"))
	shipErrs := s.reg.Counter("site_ship_send_errors_total", "ship frames lost to a down uplink")
	inFlight := s.reg.Gauge("site_in_flight", "submissions awaiting a result, both routes")
	inSystem := s.reg.Gauge("site_in_system", "transactions executing locally")
	queue := s.reg.Gauge("site_cpu_queue_depth", "bursts queued at the site CPU, job in service included")
	locksHeld := s.reg.Gauge("site_locks_held", "locks held at this site")
	mirrorOnLoop(s.reg, s.loop.Post, func() {
		counterTo(generated, s.stats.Generated)
		counterTo(completedLocal, s.stats.CompletedLocal)
		counterTo(replies, s.stats.RepliesDelivered)
		counterTo(routeLocal, s.stats.LocalA)
		counterTo(routeShip, s.stats.ShippedA)
		counterTo(routeShipB, s.stats.ShippedB)
		counterTo(abortSeized, s.stats.AbortsSeized)
		counterTo(abortDead, s.stats.AbortsDeadlock)
		counterTo(shipErrs, s.stats.ShipSendErrors)
		inFlight.Set(float64(len(s.pending)))
		inSystem.Set(float64(s.inSystem))
		queue.Set(float64(s.cpu.QueueLength()))
		locksHeld.Set(float64(s.locks.LocksHeld()))
	})
}

// Addr returns the load-generator listener's address.
func (s *Site) Addr() string { return s.ln.Addr().String() }

// WaitReady blocks until the uplink to central is established.
func (s *Site) WaitReady(ctx context.Context) error { return s.up.WaitConnected(ctx) }

func (s *Site) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		conn := netx.NewConn(nc, netx.Options{Stats: s.net})
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			conn.Serve(s.dispatchLoad)
			conn.Close()
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
		}()
	}
}

// dispatchLoad handles frames from load-generator connections: submissions
// enter the site immediately (the load generator stands in for the site's
// local terminals — no star-network delay on this hop, matching the
// simulator's arrival process).
func (s *Site) dispatchLoad(conn *netx.Conn, f netx.Frame) {
	s.wm.In(f.Type)
	if f.Type != netx.MsgSubmit {
		s.log.Errorf("unexpected %s from load", netx.MsgName(f.Type))
		s.wm.Error("unexpected-type")
		return
	}
	spec, err := netx.DecodeTxn(f.Payload)
	if err != nil {
		s.log.Errorf("bad submit: %v", err)
		s.wm.Error("bad-submit")
		conn.Close()
		return
	}
	s.fr.Recordf(flight.In, "submit", "txn %d", spec.ID)
	reqID := f.ReqID
	s.loop.Post(func() { s.admit(conn, reqID, spec) })
}

// dispatchCentral handles frames arriving on the uplink, applying the
// emulated link delay at this receiver.
func (s *Site) dispatchCentral(conn *netx.Conn, f netx.Frame) {
	s.wm.In(f.Type)
	delay := s.cfg.CommDelay
	switch f.Type {
	case netx.MsgHelloAck:
		ack, err := netx.DecodeHelloAck(f.Payload)
		if err != nil {
			s.log.Errorf("bad hello-ack: %v", err)
			s.wm.Error("bad-hello-ack")
			conn.Close()
			return
		}
		// NTP-style offset closes here: t1 is this site's clock at receipt,
		// ack.T0 its clock at send, ack.TCentral the central clock between.
		t1 := s.loop.Now()
		offset := spans.EstimateClockOffset(ack.T0, t1, ack.TCentral)
		s.spans.SetClockOffset(offset)
		s.fr.Recordf(flight.In, "hello-ack", "offset=%.6fs rtt=%.6fs", offset, t1-ack.T0)
		s.log.Debugf("clock offset vs central: %.6fs (rtt %.6fs)", offset, t1-ack.T0)
	case netx.MsgAuthReq:
		a, err := netx.DecodeAuthReq(f.Payload)
		if err != nil {
			s.log.Errorf("bad auth-req: %v", err)
			s.wm.Error("bad-auth-req")
			conn.Close()
			return
		}
		s.fr.Recordf(flight.In, "auth-req", "txn %d (%d elems)", a.Txn, len(a.Elements))
		deliver(s.loop, delay, func() { s.onAuthReq(a) })
	case netx.MsgRelease:
		r, err := netx.DecodeRelease(f.Payload)
		if err != nil {
			s.log.Errorf("bad release: %v", err)
			s.wm.Error("bad-release")
			conn.Close()
			return
		}
		s.fr.Recordf(flight.In, "release", "txn %d", r.Txn)
		deliver(s.loop, delay, func() { s.onRelease(r) })
	case netx.MsgUpdateAck:
		u, err := netx.DecodeUpdateAck(f.Payload)
		if err != nil {
			s.log.Errorf("bad update-ack: %v", err)
			s.wm.Error("bad-update-ack")
			conn.Close()
			return
		}
		s.fr.Recordf(flight.In, "update-ack", "%d elems", len(u.Elements))
		deliver(s.loop, delay, func() { s.onUpdateAck(u) })
	case netx.MsgReply:
		r, err := netx.DecodeReply(f.Payload)
		if err != nil {
			s.log.Errorf("bad reply: %v", err)
			s.wm.Error("bad-reply")
			conn.Close()
			return
		}
		s.fr.Recordf(flight.In, "reply", "txn %d", r.Txn)
		deliver(s.loop, delay, func() { s.onReply(r) })
	default:
		s.log.Errorf("unexpected %s from central", netx.MsgName(f.Type))
		s.wm.Error("unexpected-type")
	}
}

// refreshView installs a snapshot received one link delay ago, like the
// simulator's localSite.refreshView (newest wins; arrival order on the
// single uplink is already monotone).
func (s *Site) refreshView(snap netx.Snapshot) {
	at := snapshotAge(s.loop.Now(), s.cfg.CommDelay)
	if at >= s.viewAt {
		s.view = snap
		s.viewAt = at
	}
}

// routingState assembles the strategy's view, the live twin of
// Engine.routingState (always stale feedback: validate rejects
// FeedbackIdeal).
func (s *Site) routingState() routing.State {
	now := s.loop.Now()
	return routing.State{
		Now:             now,
		Site:            s.idx,
		LocalQueue:      s.cpu.QueueLength(),
		LocalInSystem:   s.inSystem,
		LocalLocks:      s.locks.LocksHeld(),
		CentralQueue:    int(s.view.Queue),
		CentralInSystem: int(s.view.InSystem),
		CentralLocks:    int(s.view.Locks),
		ViewAge:         now - s.viewAt,
		LastLocalRT:     s.lastLocalRT,
		LastShippedRT:   s.lastShippedRT,
	}
}

// ---- Admission and routing (twin of Engine.admit).

func (s *Site) admit(conn *netx.Conn, reqID uint64, spec *workload.Txn) {
	s.stats.Generated++
	p := pendingSubmit{conn: conn, reqID: reqID, arrivedAt: s.loop.Now()}
	s.spans.Begin(p.arrivedAt, spec.ID, "txn",
		spans.KV{K: "class", V: spec.Class.String()})
	if spec.Class == workload.ClassB {
		p.shipped = true
		s.stats.ShippedB++
		s.pending[spec.ID] = p
		s.spans.Instant(p.arrivedAt, spec.ID, "route", spans.KV{K: "decision", V: "ship_b"})
		s.ship(spec)
		return
	}
	if s.strategy.Decide(s.routingState()) == routing.Ship {
		p.shipped = true
		s.stats.ShippedA++
		s.shippedOut++
		s.pending[spec.ID] = p
		s.spans.Instant(p.arrivedAt, spec.ID, "route", spans.KV{K: "decision", V: "ship"})
		s.ship(spec)
		return
	}
	s.stats.LocalA++
	s.pending[spec.ID] = p
	s.spans.Instant(p.arrivedAt, spec.ID, "route", spans.KV{K: "decision", V: "local"})
	s.startLocal(spec)
}

// ship forwards a transaction's input up to central, span context attached.
// A send failure (link down) is counted; the load generator's per-request
// timeout surfaces the loss.
func (s *Site) ship(spec *workload.Txn) {
	if err := s.up.Send(netx.MsgShip, 0, netx.AppendShip(nil, spec, true)); err != nil {
		s.stats.ShipSendErrors++
		s.log.Errorf("ship send failed (txn %d): %v", spec.ID, err)
		s.wm.Error("ship-send")
		return
	}
	s.wm.Out(netx.MsgShip)
	s.fr.Recordf(flight.Out, "ship", "txn %d", spec.ID)
}

// ---- Local execution path (twin of localPath).

func (s *Site) startLocal(spec *workload.Txn) {
	t := &stxn{spec: spec, attempt: 1}
	s.inSystem++
	s.running[lock.ID(spec.ID)] = t
	s.cpu.Submit(s.cfg.InstrOverhead, func() {
		ioDelay(s.loop, s.disks, uint32(spec.ID), s.cfg.SetupIOTime, func() {
			s.call(t, 0)
		})
	})
}

func (s *Site) call(t *stxn, i int) {
	if i >= s.cfg.CallsPerTxn {
		s.commitLocal(t)
		return
	}
	s.cpu.Submit(s.cfg.InstrPerCall, func() {
		id := lock.ID(t.spec.ID)
		elem, mode := t.spec.Elements[i], t.spec.Modes[i]
		if _, held := s.locks.Holds(id, elem); held {
			s.afterLock(t, i)
			return
		}
		switch s.locks.Acquire(id, elem, mode, func() { s.afterLock(t, i) }) {
		case lock.Granted:
			s.afterLock(t, i)
		case lock.Queued:
			// The grant callback continues the transaction.
		case lock.Deadlock:
			s.deadlockAbort(t)
		}
	})
}

func (s *Site) afterLock(t *stxn, i int) {
	if t.attempt == 1 {
		ioDelay(s.loop, s.disks, t.spec.Elements[i], s.cfg.IOTimePerCall, func() { s.call(t, i+1) })
		return
	}
	s.call(t, i+1)
}

// commitLocal is the §2 local commit point: abort if seized, otherwise
// release locks, raise coherence counts, propagate the updates
// asynchronously, and answer the load generator without waiting for the
// central acknowledgement.
func (s *Site) commitLocal(t *stxn) {
	if t.marked {
		s.stats.AbortsSeized++
		s.spans.Instant(s.loop.Now(), t.spec.ID, "abort", spans.KV{K: "cause", V: "seized"})
		s.restart(t)
		return
	}
	id := lock.ID(t.spec.ID)
	updates := t.spec.Updates()
	for _, elem := range t.spec.Elements {
		s.locks.Release(id, elem)
	}
	for _, elem := range updates {
		s.locks.IncrCoherence(elem)
	}
	if len(updates) > 0 {
		if err := s.up.Send(netx.MsgUpdate, 0, netx.AppendUpdate(nil, netx.Update{
			Site: uint32(s.idx), Txn: t.spec.ID, Elements: updates, Traced: true,
		})); err != nil {
			// The coherence counts stay up until an ack arrives; a lost
			// update pins them, exactly as a real partition would.
			s.log.Errorf("update send failed (txn %d): %v", t.spec.ID, err)
			s.wm.Error("update-send")
		} else {
			s.wm.Out(netx.MsgUpdate)
			s.fr.Recordf(flight.Out, "update", "txn %d (%d elems)", t.spec.ID, len(updates))
		}
	}
	s.inSystem--
	delete(s.running, id)
	s.stats.CompletedLocal++
	p, ok := s.pending[t.spec.ID]
	if ok {
		delete(s.pending, t.spec.ID)
		now := s.loop.Now()
		s.lastLocalRT = now - p.arrivedAt
		s.rtLocal.Observe(s.lastLocalRT)
		s.spans.End(now, t.spec.ID,
			spans.KV{K: "route", V: "local"},
			spans.KV{K: "attempts", V: strconv.Itoa(t.attempt)})
		s.respond(p, netx.Result{Txn: t.spec.ID, Shipped: false, ClassB: false})
	}
}

func (s *Site) restart(t *stxn) {
	t.marked = false
	t.attempt++
	s.loop.Schedule(s.cfg.RestartDelay, func() { s.call(t, 0) })
}

func (s *Site) deadlockAbort(t *stxn) {
	s.stats.AbortsDeadlock++
	s.spans.Instant(s.loop.Now(), t.spec.ID, "abort", spans.KV{K: "cause", V: "deadlock"})
	s.locks.ReleaseAll(lock.ID(t.spec.ID))
	t.marked = false
	t.attempt++
	s.loop.Schedule(s.cfg.RestartDelay, func() { s.call(t, 0) })
}

// ---- Central-protocol handlers (site side of commitProtocol/propagator).

// onAuthReq authenticates a committing central transaction's elements:
// NACK if any has in-flight updates, otherwise seize the locks (marking
// conflicting local holders for abort) and ACK. Authentication messages
// always refresh the view (§4.2).
func (s *Site) onAuthReq(a netx.AuthReq) {
	s.refreshView(a.Snap)
	nack := false
	for _, elem := range a.Elements {
		if s.locks.Coherence(elem) != 0 {
			nack = true
			break
		}
	}
	if !nack {
		id := lock.ID(a.Txn)
		for j, elem := range a.Elements {
			victims, ok := s.locks.Seize(id, elem, a.Modes[j])
			if !ok {
				// Unreachable while handlers are loop-serialized: the
				// coherence check above cannot be invalidated mid-handler.
				s.log.Errorf("seize failed after coherence check (txn %d elem %d)", a.Txn, elem)
				s.wm.Error("seize-failed")
				nack = true
				break
			}
			for _, v := range victims {
				if vt, ok := s.running[v]; ok {
					vt.marked = true
				}
			}
		}
	}
	if a.Traced {
		verdict := "ack"
		if nack {
			verdict = "nack"
		}
		s.spans.Instant(s.loop.Now(), a.Txn, "auth-"+verdict,
			spans.KV{K: "elems", V: strconv.Itoa(len(a.Elements))})
	}
	if err := s.up.Send(netx.MsgAuthReply, 0, netx.AppendAuthReply(nil, netx.AuthReply{
		Txn: a.Txn, Site: uint32(s.idx), NACK: nack,
	})); err != nil {
		s.log.Errorf("auth-reply send failed (txn %d): %v", a.Txn, err)
		s.wm.Error("auth-reply-send")
		return
	}
	s.wm.Out(netx.MsgAuthReply)
	s.fr.Recordf(flight.Out, "auth-reply", "txn %d nack=%v", a.Txn, nack)
}

func (s *Site) onRelease(r netx.Release) {
	if s.cfg.Feedback == hybrid.FeedbackAllMessages {
		s.refreshView(r.Snap)
	}
	s.locks.ReleaseAll(lock.ID(r.Txn))
}

func (s *Site) onUpdateAck(u netx.UpdateAck) {
	if s.cfg.Feedback == hybrid.FeedbackAllMessages {
		s.refreshView(u.Snap)
	}
	for _, elem := range u.Elements {
		s.locks.DecrCoherence(elem)
	}
}

// onReply delivers a shipped transaction's completion back to the load
// generator that submitted it.
func (s *Site) onReply(r netx.Reply) {
	if s.cfg.Feedback == hybrid.FeedbackAllMessages {
		s.refreshView(r.Snap)
	}
	p, ok := s.pending[r.Txn]
	if !ok {
		s.log.Errorf("stray reply for txn %d", r.Txn)
		s.wm.Error("stray-reply")
		return
	}
	delete(s.pending, r.Txn)
	now := s.loop.Now()
	rt := now - p.arrivedAt
	if !r.ClassB {
		s.shippedOut--
		s.lastShippedRT = rt
	}
	s.rtShipped.Observe(rt)
	s.spans.End(now, r.Txn, spans.KV{K: "route", V: "shipped"})
	s.stats.RepliesDelivered++
	s.respond(p, netx.Result{Txn: r.Txn, Shipped: true, ClassB: r.ClassB})
}

func (s *Site) respond(p pendingSubmit, res netx.Result) {
	if err := p.conn.Send(netx.MsgResult, p.reqID, netx.AppendResult(nil, res)); err != nil {
		s.log.Errorf("result send failed (txn %d): %v", res.Txn, err)
		s.wm.Error("result-send")
		return
	}
	s.wm.Out(netx.MsgResult)
}

// Stats returns a loop-consistent snapshot of the counters (zero after
// Close).
func (s *Site) Stats() SiteStats {
	ch := make(chan SiteStats, 1)
	if !s.loop.Post(func() {
		st := s.stats
		st.InSystem = s.inSystem
		ch <- st
	}) {
		return SiteStats{}
	}
	return <-ch
}

// Close shuts the site down: uplink, listener, load connections, loop.
func (s *Site) Close() error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*netx.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.connMu.Unlock()

	s.up.Close()
	err := s.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	s.wg.Wait()
	s.loop.Stop()
	return err
}
