package hybrid

// The sharded parallel run mode (DESIGN.md §12, §14): each local site is
// assigned to one of Shards-1 event-queue shards (contiguous blocks), the
// central complex owns shard 0, and the shards execute concurrently under the
// conservative synchronization of sim.Group with CommDelay as the lookahead
// window. The
// topology is a star — sites interact only with the central complex, never
// with each other — so co-locating several sites on one shard changes
// nothing observable: their events still execute in timestamp order on the
// shared shard queue, and all cross-site effects go through central.
//
// Bit-exactness with the sequential loop rests on three properties:
//
//  1. Partitioned determinism. Every random stream, transaction-ID block,
//     strategy instance, metric accumulator, and event count table is
//     owned by exactly one partition (a site, the central complex, or the
//     coordinator), so no result depends on the global interleaving of
//     events at different partitions — only on each partition's own event
//     order, which conservative synchronization preserves exactly.
//  2. Deterministic message order. Each link is one Group edge, written by
//     one shard. Between rounds the touched edges are drained in ascending
//     edge index, with no sort: every Message value joins its edge's inbox,
//     kept in (arrival time, post order), and schedules the edge's delivery
//     on the destination queue. Deliveries therefore fire in (arrival time,
//     edge, per-edge sequence) order, and the per-edge sequence reproduces
//     the sequential engine's per-link FIFO order, including same-instant
//     release-before-reply guarantees the commit protocol relies on.
//  3. Barrier-aligned global events. Measurement start, queue samples, and
//     self-checks execute with every shard clock advanced to the event's
//     instant, in a fixed priority order, so clock integrals (CPU busy
//     time) and cross-partition reads see the sequential state.
//
// The one remaining difference class: a site-local event and a cross-shard
// arrival at the exact same float64 instant. The sequential queue orders
// them by global insertion, this run by round-end delivery. Such ties are
// not rare: service offsets sit on a millisecond lattice, and a delay on
// that lattice can make unrelated chains collide. DESIGN.md §16.4 records
// the off-lattice delay rule that keeps the differential gates clear of
// them; ROADMAP item 1 is the total event order that removes the class.

import (
	"hybriddb/internal/exec"
	"hybriddb/internal/routing"
	"hybriddb/internal/sim"
)

// Barrier priorities for the global events (Engine.atGlobal), replicating
// the scheduling-order tie-break of the sequential loop (the measurement
// event is scheduled first, the self-check chain second, the sample chain
// third).
const (
	prioMeasure = iota
	prioSelfCheck
	prioSample
)

// setupRunMode decides sequential vs sharded and, for a sharded run,
// re-homes every site onto its shard. Called once at the top of Run: only
// then are external observers known, and no server has work yet so the CPU
// and disk servers can rebind clocks.
func (e *Engine) setupRunMode() {
	nShards, _ := e.env.cfg.EffectiveShards()
	// External observers need the single ordered stream.
	e.parallel = nShards > 1 && e.externalObs == 0
	if !e.parallel {
		e.confineStrategy(nil, 1)
		return
	}
	sims := make([]*sim.Simulator, nShards)
	sims[0] = e.simulator // central keeps the engine's queue as shard 0
	for i := 1; i < nShards; i++ {
		sims[i] = sim.New()
	}
	// Contiguous-block site→shard mapping: worker shard w (1-based) owns a
	// block of sites/(nShards-1) consecutive sites, the first rem workers
	// one extra. Shard count is thereby decoupled from site count — N=1000
	// runs on GOMAXPROCS-ish shards, not 1001 — and any mapping is
	// observationally equivalent: sites interact only with central, and
	// co-located sites still execute in timestamp order on the shared queue.
	workers := nShards - 1
	per, rem := len(e.sites)/workers, len(e.sites)%workers
	shardOf := make([]int, len(e.sites))
	big := rem * (per + 1) // sites held by the per+1-sized blocks
	for i, ls := range e.sites {
		var w int
		if i < big {
			w = i / (per + 1)
		} else {
			w = rem + (i-big)/per
		}
		sh := 1 + w
		shardOf[i] = sh
		ls.sched = exec.NewDispatch(exec.Sim(sims[sh]))
		ls.cpu.Rebind(exec.Sim(sims[sh]))
		for _, d := range ls.disks {
			d.Rebind(exec.Sim(sims[sh]))
		}
	}
	e.confineStrategy(shardOf, nShards)
	e.m.setHistGroups(shardOf, nShards)
	net := newShardNet(sims, shardOf, e.env.cfg.CommDelay, e.wire.toCentral, e.wire.toSite)
	e.wire.net, e.group = net, net.group
	// Declare the star: sites talk only to central (shard 0), so the
	// synchronizer can bound site shards by central's clock alone and let
	// them coalesce many lookahead windows per round.
	e.group.SetHub(0)
}

// confineStrategy gives each event loop its own instance of a
// routing.LoopLocal strategy and points the loop's sites at it: loop
// shardOf[i] runs site i's events (loop 0, the only one of a sequential run,
// when shardOf is nil). The instances are built here and not in New because
// only Run knows the loops, and construction stays as cheap as without them.
// A per-site fork (routing.SiteLocal) is confined already.
func (e *Engine) confineStrategy(shardOf []int, loops int) {
	if _, forked := e.strategy.(routing.SiteLocal); forked {
		return
	}
	if _, ok := e.strategy.(routing.LoopLocal); !ok {
		return
	}
	perLoop := make([]routing.Strategy, loops)
	for i, ls := range e.sites {
		loop := 0
		if shardOf != nil {
			loop = shardOf[i]
		}
		if perLoop[loop] == nil {
			perLoop[loop] = loopInstance(e.strategy)
		}
		ls.strategy = perLoop[loop]
	}
}

// shardLink is one directed site<->central link of a sharded run. The sent
// counter is written only by the sending shard's worker (the Group's round
// barrier orders it against the coordinator's reads).
type shardLink struct {
	group *sim.GroupOf[Message]
	src   *sim.Simulator // sending shard's clock
	from  int            // sending shard index
	to    int            // receiving shard index
	edge  int            // FIFO edge id (unique per link)
	delay float64

	sent uint64
}

// send posts the message across the shard boundary.
func (l *shardLink) send(m Message) {
	l.sent++
	l.group.Post(l.from, l.to, l.edge, l.src.Now()+l.delay, m)
}

// shardNet is the sharded transport: the same star topology as
// comm.NetworkOf, with messages crossing shard boundaries through the Group.
// Edge i is site i's uplink and edge n+i its downlink.
type shardNet struct {
	group     *sim.GroupOf[Message]
	up        []*shardLink // site i -> central
	down      []*shardLink // central -> site i
	toCentral func(Message)
	toSite    func(Message)
}

func newShardNet(sims []*sim.Simulator, shardOf []int, delay float64, toCentral, toSite func(Message)) *shardNet {
	n := len(shardOf)
	net := &shardNet{
		up: make([]*shardLink, n), down: make([]*shardLink, n),
		toCentral: toCentral, toSite: toSite,
	}
	// Two edges per site (uplink, downlink); lookahead = the one-way delay.
	net.group = sim.NewGroupOf(sims, 2*n, delay, net.receive)
	for i, sh := range shardOf {
		net.up[i] = &shardLink{group: net.group, src: sims[sh], from: sh, to: 0, edge: i, delay: delay}
		net.down[i] = &shardLink{group: net.group, src: sims[0], from: 0, to: sh, edge: n + i, delay: delay}
	}
	return net
}

// receive is the Group's receive function: it hands the message to the node
// at the receiving end of the edge.
func (n *shardNet) receive(edge int, m Message) {
	if edge < len(n.up) {
		n.toCentral(m)
	} else {
		n.toSite(m)
	}
}

// ToCentral implements simNet.
func (n *shardNet) ToCentral(site int, m Message) { n.up[site].send(m) }

// ToSite implements simNet.
func (n *shardNet) ToSite(site int, m Message) { n.down[site].send(m) }

// MessagesSent implements simNet. Call only between rounds or after the
// run (the coordinator's view of the link counters).
func (n *shardNet) MessagesSent() uint64 {
	var total uint64
	for i := range n.up {
		total += n.up[i].sent + n.down[i].sent
	}
	return total
}
