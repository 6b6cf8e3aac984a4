// Package cluster is the live implementation of the hybrid transaction
// core: the same classify → route → lock → execute → commit → propagate
// state machine the simulator runs (internal/hybrid), executed by real
// processes over real TCP (DESIGN.md §13).
//
// Each node — a local site or the central complex — owns an exec.Loop, the
// wall-clock counterpart of a simulator shard, and one hybrid.SiteNode or
// hybrid.CentralNode built on it: the very partition state and lifecycle
// methods the simulator runs. Network receive goroutines decode frames into
// hybrid.Messages and push them through the node's inbox onto the loop,
// which delivers them one at a time, so the lock tables, CPU queues, and
// per-transaction state need no locking, exactly as in the simulation. What
// this package adds is what a process needs and a simulation does not:
// listeners and connections, the Hello handshake, the wire encoding of the
// seven protocol messages (link.go) and the inbox (inbox.go), the load
// generator's pending table, the registry that mirrors the node's event
// counts (obs.Counts, the table the simulator's Result reads), and the
// flight recorder. Observers the caller supplies ride the
// node's bus; a spans.Collector among them is how a process traces (hybridd
// -spans), and without one no trace event is built.
//
// The cluster runs in emulation mode: CPU bursts and I/O hold the real
// timers of their configured durations, and the configured one-way
// communication delay is emulated at the receiver of every inter-tier
// message (the sender's TCP latency rides inside it). That makes a loopback
// cluster's measured response times directly comparable to the simulator's
// predictions for the same hybrid.Config — the comparison the e2e test and
// the tolerance bands in testdata/tolerances.json enforce.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/obsx/logx"
	"hybriddb/internal/obsx/metrics"
)

// validate rejects the two Config fields that stay simulator-only (DESIGN.md
// §13.2). Ideal feedback (hybrid.ValidateStandalone) routes on the central
// complex's state at the decision instant; a site learns that state only from
// messages that left central CommDelay ago, and no wire carries it faster.
// Arrival-rate schedules pace arrivals, and a live node admits whatever its
// load generators submit: pacing is theirs (hybridload -rate, -ramp).
func validate(cfg hybrid.Config) error {
	if err := hybrid.ValidateStandalone(cfg); err != nil {
		return err
	}
	if cfg.RateSchedules != nil {
		return fmt.Errorf("cluster: rate schedules are a simulator feature; pace the load generator instead")
	}
	return nil
}

// flightCapacity is each node's flight-recorder ring size: enough recent
// wire history to reconstruct a stuck handshake or reconnect storm.
const flightCapacity = 256

// shell is the process around one hybrid node, the same at both tiers: the
// event loop the node runs on, the inbox that carries protocol messages onto
// it (set by StartSite / StartCentral), the logging, registry, wire-counter
// and flight-recorder plumbing every frame passes, the node's distribution
// tally (subscribed to its bus), and the reader of the node's event counts
// (set by mirrorOnLoop).
type shell struct {
	cfg    hybrid.Config
	loop   *exec.Loop
	inbox  *inbox
	log    logx.Logger
	reg    *metrics.Registry
	wm     *wireMetrics
	net    *netx.Stats
	fr     *flight.Recorder
	dists  *distTally
	counts func() obs.Counts
}

// newShell names the process in logs and flight dumps.
func newShell(cfg hybrid.Config, name string) shell {
	reg, ns := metrics.NewRegistry(), &netx.Stats{}
	registerNetStats(reg, ns)
	return shell{
		cfg: cfg, loop: exec.NewLoop(), log: logx.New(name),
		reg: reg, wm: newWireMetrics(reg), net: ns,
		fr: flight.NewRecorder(name, flightCapacity), dists: newDistTally(),
	}
}

// Metrics returns the node's registry, for a debug listener or a test
// scrape.
func (sh *shell) Metrics() *metrics.Registry { return sh.reg }

// Flight returns the node's flight recorder of recent wire events.
func (sh *shell) Flight() *flight.Recorder { return sh.fr }

// received finishes the receive of one protocol frame a link decoded on the
// read goroutine: the message joins the node's inbox, which delivers it on
// the loop after the emulated link delay it crossed the star network with in
// the model; a frame that is not one of this direction's messages is
// counted, one that does not decode or validate also costs its sender the
// connection.
func (sh *shell) received(conn *netx.Conn, f netx.Frame, m hybrid.Message, err error) {
	name := netx.MsgName(f.Type)
	switch {
	case errors.Is(err, errNotProtocol):
		sh.log.Errorf("unexpected %s from %s", name, conn.RemoteAddr())
		sh.wm.Error("unexpected-type")
	case err != nil:
		sh.log.Errorf("bad %s from %s: %v", name, conn.RemoteAddr(), err)
		sh.wm.Error("bad-" + name)
		conn.Close()
	default:
		sh.fr.RecordFrame(flight.In, name, m.Txn, flight.None)
		sh.inbox.push(envelope{msg: m, from: conn})
	}
}

// stray counts a message naming a transaction the node does not know.
func (sh *shell) stray(msgType byte, txn int64) {
	name := netx.MsgName(msgType)
	sh.log.Errorf("stray %s for txn %d", name, txn)
	sh.wm.Error("stray-" + name)
}

// acceptor owns a node's listener and the connections it accepted: each is
// served on its own read goroutine until it fails or the node closes.
type acceptor struct {
	ln      net.Listener
	opts    netx.Options
	handler netx.Handler

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[*netx.Conn]struct{}
	closed bool
}

func listen(addr string, stats *netx.Stats, handler netx.Handler) (*acceptor, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &acceptor{ln: ln, opts: netx.Options{Stats: stats}, handler: handler, conns: make(map[*netx.Conn]struct{})}
	a.wg.Add(1)
	go a.run()
	return a, nil
}

func (a *acceptor) run() {
	defer a.wg.Done()
	for {
		nc, err := a.ln.Accept()
		if err != nil {
			return // listener closed
		}
		conn := netx.NewConn(nc, a.opts)
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.mu.Unlock()
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			conn.Serve(a.handler)
			conn.Close()
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

// Addr returns the listener's address.
func (a *acceptor) Addr() string { return a.ln.Addr().String() }

// close stops accepting, drops every connection, and waits for the read
// goroutines; a second call does nothing.
func (a *acceptor) close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	conns := make([]*netx.Conn, 0, len(a.conns))
	for conn := range a.conns {
		conns = append(conns, conn)
	}
	a.mu.Unlock()

	err := a.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	a.wg.Wait()
	return err
}
