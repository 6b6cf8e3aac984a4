package cluster

// The live local site: accepts transaction submissions from load
// generators and hands them to a hybrid.SiteNode running on the node's
// exec.Loop — the same admission, routing, local execution, authentication
// and propagation code the simulator runs. This file is the process around
// the node: listener and uplink, the Hello handshake, the load generator's
// pending table, and the registry's view of the node.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/routing"
)

// pendingSubmit routes a transaction's eventual result back to the load
// generator connection that submitted it.
type pendingSubmit struct {
	conn  *netx.Conn
	reqID uint64
}

// Site is one live local site.
type Site struct {
	shell
	idx  int
	node *hybrid.SiteNode
	link siteLink

	// submits carries load generators' submissions onto the loop, with no
	// link delay. pending is written and read only on the loop; resBuf is
	// respond's encoding scratch (Send copies before it returns).
	submits *inbox
	pending map[int64]pendingSubmit
	resBuf  []byte

	up *netx.Client // uplink to central

	// clockOffset is the latest handshake's estimate (float64 bits), written
	// on the uplink's read goroutine.
	clockOffset atomic.Uint64

	*acceptor // the listener and its connections; Addr
}

// StartSite boots site idx: it listens for load generators on addr and
// maintains a reconnecting uplink to the central node. The strategy routes
// this site's class A arrivals; stateful strategies should be forked per
// site (routing.SiteLocal) by the caller, as the simulator does. A site is
// one event loop, so its node takes its own instance of a routing.LoopLocal
// strategy (hybrid.NewSiteNode), as the simulator does per loop; several
// sites may therefore be started with one such value. Observers join the
// site's own on the node's bus and run on its loop; an obs.DetailObserver
// among them (a spans.Collector) switches the protocol-detail stream on.
func StartSite(cfg hybrid.Config, idx int, centralAddr, addr string, strategy routing.Strategy, observers ...obs.Observer) (*Site, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if strategy == nil {
		strategy = routing.AlwaysLocal{}
	}
	s := &Site{
		shell:   newShell(cfg, "site "+strconv.Itoa(idx)),
		idx:     idx,
		pending: make(map[int64]pendingSubmit),
	}
	s.link = siteLink{site: idx, clock: s.loop, delay: cfg.CommDelay, send: s.sendUp, stray: s.stray}
	s.inbox = newInbox(s.loop, cfg.CommDelay, func(e envelope) { s.link.deliver(e.msg) })
	s.submits = newInbox(s.loop, 0, s.submit)
	node, err := hybrid.NewSiteNode(cfg, idx, s.loop, strategy, &s.link, append([]obs.Observer{s, s.dists}, observers...)...)
	if err != nil {
		s.loop.Stop()
		return nil, err
	}
	s.node, s.link.node = node, node
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
	// Accept load generators last: a submission may ship at once.
	if s.acceptor, err = listen(addr, s.net, s.dispatchLoad); err != nil {
		s.up.Close()
		s.loop.Stop()
		return nil, err
	}
	return s, nil
}

// registerMetrics wires the registry: the node's count table, distributions
// and state gauges mirrored in one scrape hook, so the site conservation
// invariant generated == completed_local + replies_delivered + in_flight, and
// each route's response-time count against its completions, hold exactly in
// every exposition.
func (s *Site) registerMetrics() {
	s.reg.GaugeFunc("site_clock_offset_seconds", "estimated central-minus-local clock offset from the Hello handshake", s.ClockOffset)
	inFlight := s.reg.Gauge("site_in_flight", "submissions awaiting a result, both routes")
	inSystem := s.reg.Gauge("site_in_system", "transactions executing locally")
	queue := s.reg.Gauge("site_cpu_queue_depth", "bursts queued at the site CPU, job in service included")
	locksHeld := s.reg.Gauge("site_locks_held", "locks held at this site")
	s.mirrorOnLoop(siteCounts, obs.AtSite, "site_", s.node.Counts, func() {
		inFlight.Set(float64(len(s.pending)))
		inSystem.Set(float64(s.node.InSystem()))
		queue.Set(float64(s.node.QueueLength()))
		locksHeld.Set(float64(s.node.LocksHeld()))
	})
}

// ClockOffset returns the estimated central-minus-local clock difference in
// seconds, re-estimated at every (re)connect handshake; the latest wins. It
// is what shifts this process's span file into the central timebase.
func (s *Site) ClockOffset() float64 { return math.Float64frombits(s.clockOffset.Load()) }

// WaitReady blocks until the uplink to central is established.
func (s *Site) WaitReady(ctx context.Context) error { return s.up.WaitConnected(ctx) }

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
	if err == nil {
		err = hybrid.CheckSpec(&s.cfg, spec)
	}
	if err == nil && spec.HomeSite != s.idx {
		err = fmt.Errorf("txn %d is homed at site %d, this is site %d", spec.ID, spec.HomeSite, s.idx)
	}
	if err != nil {
		s.badSubmit(conn, err)
		return
	}
	s.fr.RecordFrame(flight.In, "submit", spec.ID, flight.None)
	s.submits.push(envelope{msg: hybrid.Message{Spec: spec}, from: conn, reqID: f.ReqID})
}

// submit admits one load generator's submission, on the loop.
func (s *Site) submit(e envelope) {
	spec := e.msg.Spec
	if _, dup := s.pending[spec.ID]; dup {
		s.badSubmit(e.from, fmt.Errorf("txn %d is already in flight", spec.ID))
		return
	}
	s.pending[spec.ID] = pendingSubmit{conn: e.from, reqID: e.reqID}
	s.node.Admit(spec)
}

// badSubmit refuses a submission the node cannot run and drops the load
// connection that sent it.
func (s *Site) badSubmit(conn *netx.Conn, err error) {
	s.log.Errorf("bad submit: %v", err)
	s.wm.Error("bad-submit")
	conn.Close()
}

// dispatchCentral handles frames arriving on the uplink: the handshake
// answer here, the four protocol messages through the link — decoded on this
// read goroutine, delivered through the inbox on the loop after the emulated
// link delay.
func (s *Site) dispatchCentral(conn *netx.Conn, f netx.Frame) {
	s.wm.In(f.Type)
	if f.Type == netx.MsgHelloAck {
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
		s.clockOffset.Store(math.Float64bits(offset))
		s.fr.Recordf(flight.In, "hello-ack", "offset=%.6fs rtt=%.6fs", offset, t1-ack.T0)
		s.log.Debugf("clock offset vs central: %.6fs (rtt %.6fs)", offset, t1-ack.T0)
		return
	}
	m, err := s.link.receive(f.Type, f.Payload)
	s.received(conn, f, m, err)
}

// sendUp is the link's send function: one protocol frame up to central. A
// send failure (link down) is counted, and the message is lost as on a real
// partition — a lost ship surfaces as the load generator's request timeout,
// a lost update pins its coherence counts until an ack arrives.
func (s *Site) sendUp(msgType byte, txn int64, payload []byte) {
	name := netx.MsgName(msgType)
	if err := s.up.Send(msgType, 0, payload); err != nil {
		s.log.Errorf("%s send failed (txn %d): %v", name, txn, err)
		s.wm.Error(name + "-send")
		return
	}
	s.wm.Out(msgType)
	s.fr.RecordFrame(flight.Out, name, txn, flight.None)
}

// OnEvent implements obs.Observer on the node's bus: a completion event
// answers the load generator that submitted the transaction. It runs on the
// loop, inside the handler that emitted it.
func (s *Site) OnEvent(ev obs.Event) {
	switch ev.Kind {
	case obs.TxnLocalCommit:
		s.respond(netx.Result{Txn: ev.Txn})
	case obs.TxnReply:
		s.respond(netx.Result{Txn: ev.Txn, Shipped: true, ClassB: ev.ClassB})
	}
}

// respond completes a submission back to the load generator that made it.
func (s *Site) respond(res netx.Result) {
	p, ok := s.pending[res.Txn]
	if !ok {
		return
	}
	delete(s.pending, res.Txn)
	s.resBuf = netx.AppendResult(s.resBuf[:0], res)
	if err := p.conn.Send(netx.MsgResult, p.reqID, s.resBuf); err != nil {
		s.log.Errorf("result send failed (txn %d): %v", res.Txn, err)
		s.wm.Error("result-send")
		return
	}
	s.wm.Out(netx.MsgResult)
}

// Close shuts the site down: uplink, listener, load connections, loop.
func (s *Site) Close() error {
	s.up.Close()
	err := s.acceptor.close()
	s.loop.Stop()
	return err
}
