package cluster

// The live central computing complex: accepts site uplinks and hands their
// protocol messages to a hybrid.CentralNode running on the node's exec.Loop
// — the same central execution path, commit protocol and update application
// the simulator runs. This file is the process around the node: listener
// and site connections, the Hello handshake, and the registry's view of the
// node.

import (
	"fmt"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/workload"
)

// Central is the live central node.
type Central struct {
	shell
	node *hybrid.CentralNode
	link centralLink

	// siteConns is written and read only on the loop.
	siteConns []*netx.Conn

	*acceptor // the listener and its connections; Addr
}

// StartCentral boots a central node listening on addr ("host:0" picks a
// free port; see Addr). Observers ride the node's bus, as for StartSite.
func StartCentral(cfg hybrid.Config, addr string, observers ...obs.Observer) (*Central, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	c := &Central{
		shell:     newShell(cfg, "central"),
		siteConns: make([]*netx.Conn, cfg.Sites),
	}
	c.link = centralLink{cfg: &c.cfg, send: c.toSite, stray: c.stray, accept: c.acceptShip}
	c.inbox = newInbox(c.loop, cfg.CommDelay, func(e envelope) { c.link.deliver(e.msg, e.from) })
	node, err := hybrid.NewCentralNode(cfg, c.loop, &c.link, append([]obs.Observer{c.dists}, observers...)...)
	if err != nil {
		c.loop.Stop()
		return nil, err
	}
	c.node, c.link.node = node, node
	c.registerMetrics()
	if c.acceptor, err = listen(addr, c.net, c.dispatch); err != nil {
		c.loop.Stop()
		return nil, err
	}
	return c, nil
}

// registerMetrics wires the registry: the node's count table, distributions
// and state gauges mirrored in one loop-time instant — which is what lets a
// scrape assert the exact conservation invariant ship_arrived == commits +
// in_system.
func (c *Central) registerMetrics() {
	inSystem := c.reg.Gauge("central_in_system", "transactions at central in any phase")
	queue := c.reg.Gauge("central_cpu_queue_depth", "bursts queued at the central CPU, job in service included")
	locksHeld := c.reg.Gauge("central_locks_held", "locks held at central")
	c.mirrorOnLoop(centralCounts, obs.AtCentral, "central_", c.node.Counts, func() {
		inSystem.Set(float64(c.node.InSystem()))
		queue.Set(float64(c.node.QueueLength()))
		locksHeld.Set(float64(c.node.LocksHeld()))
	})
}

// dispatch decodes one inbound frame on the read goroutine and hands it to
// the loop — the handshake at once as a post, the three protocol messages
// (decoded by the link) through the inbox, after the emulated link delay
// they crossed the star network with in the model.
func (c *Central) dispatch(conn *netx.Conn, f netx.Frame) {
	c.wm.In(f.Type)
	if f.Type == netx.MsgHello {
		h, err := netx.DecodeHello(f.Payload)
		if err != nil {
			c.log.Errorf("bad hello from %s: %v", conn.RemoteAddr(), err)
			c.wm.Error("bad-hello")
			conn.Close()
			return
		}
		c.fr.Recordf(flight.In, "hello", "site %d t0=%.6f", h.Site, h.T0)
		c.loop.Post(func() { c.register(h, conn) })
		return
	}
	m, err := c.link.receive(f.Type, f.Payload)
	c.received(conn, f, m, err)
}

// register installs a site's uplink and answers its Hello with the central
// clock reading, completing the NTP-style offset handshake.
func (c *Central) register(h netx.Hello, conn *netx.Conn) {
	site := int(h.Site)
	if site < 0 || site >= len(c.siteConns) {
		c.log.Errorf("hello for out-of-range site %d", site)
		c.wm.Error("bad-site-index")
		conn.Close()
		return
	}
	if old := c.siteConns[site]; old != nil && old != conn {
		old.Close() // a site redialed; the stale uplink is dead
	}
	c.siteConns[site] = conn
	c.log.Debugf("site %d registered from %s", site, conn.RemoteAddr())
	ack := netx.AppendHelloAck(nil, netx.HelloAck{T0: h.T0, TCentral: c.loop.Now()})
	if err := conn.Send(netx.MsgHelloAck, 0, ack); err != nil {
		c.log.Errorf("hello-ack to site %d: %v", site, err)
		c.wm.Error("send")
		return
	}
	c.wm.Out(netx.MsgHelloAck)
	c.fr.RecordFrame(flight.Out, "hello-ack", flight.None, site)
}

// toSite is the link's send function: one protocol message down a site's
// uplink. A missing or dead uplink loses the message, as a real network
// would; the site's reconnect restores the link.
func (c *Central) toSite(site int, msgType byte, payload []byte) {
	name := netx.MsgName(msgType)
	if site < 0 || site >= len(c.siteConns) || c.siteConns[site] == nil {
		c.log.Errorf("dropping %s for unregistered site %d", name, site)
		c.wm.Error("drop-unregistered")
		return
	}
	if err := c.siteConns[site].Send(msgType, 0, payload); err != nil {
		c.log.Errorf("send %s to site %d: %v", name, site, err)
		c.wm.Error("send")
		return
	}
	c.wm.Out(msgType)
	c.fr.RecordFrame(flight.Out, name, flight.None, site)
}

// acceptShip is the link's admission check, on the loop: a Ship naming a
// transaction already executing here, or a home site other than the one
// registered on the uplink it arrived on (its Reply would stray there while
// the real sender's submission timed out), is refused and costs its sender
// the connection (a site redials).
func (c *Central) acceptShip(from *netx.Conn, spec *workload.Txn) bool {
	var why string
	switch {
	case c.node.Running(spec.ID):
		why = "is already executing"
	case c.siteConns[spec.HomeSite] != from:
		why = fmt.Sprintf("is homed at site %d, not the site registered on this uplink", spec.HomeSite)
	default:
		return true
	}
	c.log.Errorf("bad ship from %s: txn %d %s", from.RemoteAddr(), spec.ID, why)
	c.wm.Error("bad-ship")
	from.Close()
	return false
}

// Close shuts the node down: stop accepting, drop every connection, stop
// the loop.
func (c *Central) Close() error {
	err := c.acceptor.close()
	c.loop.Stop()
	return err
}
