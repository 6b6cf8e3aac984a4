// Sharded conservative synchronization: a Group runs several Simulators
// ("shards") in parallel under a Chandy–Misra-style windowed protocol. The
// fixed communication delay between shards is the conservative lookahead: a
// message sent at time t arrives no earlier than t+lookahead, so shard j may
// safely execute all events below
//
//	bound_j = min over shards i that can send to j of (next event of i) + lookahead
//
// without ever receiving a message that lands inside a window it already
// executed. Rounds are synchronous: the coordinator computes every shard's
// bound, the workers with events below their bound drain their queues
// strictly below it in parallel, and the messages posted during the round
// are merged between rounds in a deterministic order. Per-shard bounds are
// what makes large windows cheap — a shard far ahead of its only sender
// advances many lookahead windows in a single fan-out, and shards with no
// events below their bound are skipped entirely.
//
// By default every shard is assumed able to send to every other, so bound_j
// is min-except-self + lookahead. SetHub declares a star topology (spokes
// talk only to the hub): spokes are then bounded only by the hub's next
// event and the hub only by the earliest spoke.
//
// A Group carries values of any type M to one receive function, called with
// the message's edge on the destination shard at the arrival instant. The
// func() instance (Group) is a group whose messages are their own delivery
// callbacks.
//
// Message merging needs no global sort: messages are collected in pooled
// per-edge outbox buffers (each edge is written by exactly one shard), and
// between rounds the touched edges are drained in ascending edge index. Each
// message moves into its edge's inbox and schedules the edge's delivery
// function at its arrival time on the destination queue. A destination
// calendar orders events by (time, insertion sequence), and insertion order
// only matters for same-instant events, so draining the per-edge streams in
// edge order reproduces exactly the total (arrival time, edge, per-edge
// sequence) order a global sort would produce. The inbox is kept in (arrival
// time, post order), the order in which the edge's delivery events fire, so
// each firing pops the message it was scheduled for.
//
// Globally synchronized events (measurement start, periodic samples,
// invariant audits) do not belong to any shard: they are scheduled on the
// Group with an explicit priority and executed at a barrier, after every
// shard has drained below their instant and been advanced to it, so that
// clock-dependent reads (busy-time integrals, queue lengths) observe the
// same state a single-queue run would.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// groupMsg is one cross-shard message awaiting delivery; its edge and
// destination are implied by the outbox or inbox holding it.
type groupMsg[M any] struct {
	at Time
	m  M
}

// inbox is one edge's merged, undelivered messages in (arrival time, post
// order). The coordinator pushes between rounds and the destination shard's
// worker pops during them; the round barrier orders the two. The buffer is
// reused: it rewinds whenever it drains, and folds its live tail back to the
// front when it is full and at least half consumed.
type inbox[M any] struct {
	buf  []groupMsg[M]
	head int
}

// push inserts e after every message arriving no later than it. Arrival
// times that never decrease append; a regressing one moves back past the
// later arrivals, so equal times keep their post order.
func (q *inbox[M]) push(e groupMsg[M]) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, e)
	i := len(q.buf) - 1
	for i > q.head && q.buf[i-1].at > e.at {
		q.buf[i] = q.buf[i-1]
		i--
	}
	q.buf[i] = e
}

// pop removes and returns the earliest message. The inbox must not be empty.
func (q *inbox[M]) pop() groupMsg[M] {
	e := q.buf[q.head]
	q.buf[q.head] = groupMsg[M]{} // drop any pointer the value holds
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return e
}

// globalEvent is one barrier-executed event, ordered by (at, prio, seq).
type globalEvent struct {
	at   Time
	prio int32
	seq  uint64
	fn   func()
}

// GroupOf synchronizes a set of shard Simulators conservatively and carries
// messages of type M between them. Construct with NewGroupOf (or NewGroup),
// schedule initial work on the shards and global events on the Group, then
// call Run once. A Group is not reusable across runs.
type GroupOf[M any] struct {
	shards    []*Simulator
	lookahead Time
	recv      func(edge int, m M)
	vet       func(M) // nil, or a check every message must pass at Post

	// Per-edge outboxes: each edge is written only by its sending shard's
	// worker during a round and drained by the coordinator between rounds
	// (the WaitGroup barrier orders the accesses). Buffers are pooled —
	// drained to length zero, capacity retained.
	edgeBox [][]groupMsg[M]
	// edgeTo pins each edge's destination shard (-1 until first use); an
	// edge is a point-to-point FIFO channel, not a bus.
	edgeTo []int32
	// touched collects, per sending shard, the edges it posted to this
	// round (owner-written, coordinator-drained).
	touched [][]int32
	// inboxes hold each edge's merged, undelivered messages; deliverFns[e]
	// (bound once at construction) pops edge e's earliest and receives it.
	inboxes    []inbox[M]
	deliverFns []func()

	// hub >= 0 declares a star topology: shard hub exchanges messages with
	// every other shard, and the non-hub shards never message each other.
	hub int

	// Barrier-executed global events, a sorted pending list (removals pop
	// from the front; the event count is small: measurement chains, not
	// workload).
	globals   []globalEvent
	globalSeq uint64

	// Coordinator scratch, reused across rounds.
	times   []Time  // next event time per shard (valid where haveT)
	haveT   []bool  // shard has a pending event
	bounds  []Time  // per-shard conservative bound for the current round
	drained []int32 // touched-edge gather buffer

	// Worker machinery: one persistent goroutine per shard, fed rounds over
	// its own channel; the WaitGroup is the round barrier (and the
	// happens-before edge the race detector sees).
	cmds    []chan workerCmd
	wg      sync.WaitGroup
	started bool

	// Deadlock watchdog: progress bumps on every round and barrier; a
	// background goroutine reports when it stops moving for watchdog wall
	// time (0 disables). Guards against synchronization bugs that would
	// otherwise hang a test silently. The stall snapshot is written by the
	// coordinator each round under the mutex, so the report is race-free.
	watchdog time.Duration
	progress atomic.Uint64
	stopDog  chan struct{}
	onStall  func(dump string)
	stallMu  sync.Mutex
	stall    stallInfo
}

// stallInfo is the coordinator's last-round snapshot for the watchdog dump.
type stallInfo struct {
	round      uint64
	times      []Time
	haveT      []bool
	bounds     []Time
	dispatched int
}

type workerCmd struct {
	bound Time
	// until selects RunUntil (inclusive horizon semantics, clock advanced
	// to bound) for the final round instead of RunBefore.
	until bool
}

// DefaultWatchdog is the wall-clock stall budget after which a Group run
// panics: no shard advancing for this long means the synchronizer (not the
// workload) is stuck.
const DefaultWatchdog = 10 * time.Second

// Group is a group whose messages are their delivery callbacks.
type Group = GroupOf[func()]

// NewGroupOf builds a synchronizer over the given shards that delivers every
// message to recv, with the message's edge. edges is the number of distinct
// FIFO message edges (each used by one sending shard only); lookahead is the
// minimum cross-shard message latency and must be positive — with zero
// lookahead no shard could ever safely lead, and the caller should run
// single-queue instead.
func NewGroupOf[M any](shards []*Simulator, edges int, lookahead Time, recv func(edge int, m M)) *GroupOf[M] {
	if len(shards) < 2 {
		panic(fmt.Sprintf("sim: group needs >= 2 shards, got %d", len(shards)))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	if edges < 0 {
		panic(fmt.Sprintf("sim: negative edge count %d", edges))
	}
	if recv == nil {
		panic("sim: nil receive function")
	}
	g := &GroupOf[M]{
		shards:     shards,
		lookahead:  lookahead,
		recv:       recv,
		edgeBox:    make([][]groupMsg[M], edges),
		edgeTo:     make([]int32, edges),
		touched:    make([][]int32, len(shards)),
		inboxes:    make([]inbox[M], edges),
		deliverFns: make([]func(), edges),
		hub:        -1,
		times:      make([]Time, len(shards)),
		haveT:      make([]bool, len(shards)),
		bounds:     make([]Time, len(shards)),
		cmds:       make([]chan workerCmd, len(shards)),
		watchdog:   DefaultWatchdog,
	}
	for i := range g.edgeTo {
		g.edgeTo[i] = -1
		edge := i
		g.deliverFns[i] = func() { g.deliverNext(edge) }
	}
	return g
}

// NewGroup builds a synchronizer whose messages are callbacks: each runs on
// its destination shard at its arrival time.
func NewGroup(shards []*Simulator, edges int, lookahead Time) *Group {
	g := NewGroupOf(shards, edges, lookahead, call)
	g.vet = vetAction
	return g
}

// call is the callback group's receive function.
func call(_ int, action func()) { action() }

// vetAction refuses a nil callback at Post, where the mistake is made,
// rather than at its delivery.
func vetAction(action func()) {
	if action == nil {
		panic("sim: nil post action")
	}
}

// SetWatchdog overrides the stall budget; d <= 0 disables the watchdog.
func (g *GroupOf[M]) SetWatchdog(d time.Duration) { g.watchdog = d }

// SetStallHandler overrides the watchdog's stall action (default: panic
// with the dump). Intended for tests that must observe the stall report
// without killing the process. Call before Run.
func (g *GroupOf[M]) SetStallHandler(fn func(dump string)) { g.onStall = fn }

// SetHub declares a star topology with the given shard as the hub: every
// non-hub shard exchanges messages only with the hub. The coordinator then
// bounds each spoke by the hub's next event alone (and the hub by the
// earliest spoke), letting a spoke far ahead of the hub advance many
// lookahead windows in one round. Call before Run.
func (g *GroupOf[M]) SetHub(hub int) {
	if hub < 0 || hub >= len(g.shards) {
		panic(fmt.Sprintf("sim: hub %d out of range [0,%d)", hub, len(g.shards)))
	}
	g.hub = hub
}

// Shards returns the number of shards.
func (g *GroupOf[M]) Shards() int { return len(g.shards) }

// Shard returns the i-th shard simulator.
func (g *GroupOf[M]) Shard(i int) *Simulator { return g.shards[i] }

// Post sends a cross-shard message: the receive function gets m on shard to
// at time at. It must be called from within an event executing on shard from
// (during a round), and at must respect the lookahead: at >= from.Now() +
// lookahead. An edge is a point-to-point channel: all its posts come from one
// shard and go to one shard. Deliveries execute in arrival-time order;
// same-instant ties break by (edge index, post order), so an edge whose
// arrival times never decrease — every fixed-delay link — behaves as a FIFO
// channel.
func (g *GroupOf[M]) Post(from, to, edge int, at Time, m M) {
	src := g.shards[from]
	if at < src.now+g.lookahead {
		panic(fmt.Sprintf("sim: post at %v violates lookahead (now %v + %v)",
			at, src.now, g.lookahead))
	}
	if g.vet != nil {
		g.vet(m)
	}
	switch g.edgeTo[edge] {
	case int32(to):
	case -1:
		g.edgeTo[edge] = int32(to)
	default:
		panic(fmt.Sprintf("sim: edge %d rebound from shard %d to %d", edge, g.edgeTo[edge], to))
	}
	if len(g.edgeBox[edge]) == 0 {
		g.touched[from] = append(g.touched[from], int32(edge))
	}
	g.edgeBox[edge] = append(g.edgeBox[edge], groupMsg[M]{at: at, m: m})
}

// ScheduleGlobalAt schedules a barrier-executed event at absolute time at.
// When several global events share an instant they execute in (prio, FIFO)
// order. Call before Run or from a global event's handler (the coordinator
// context); never from shard events.
func (g *GroupOf[M]) ScheduleGlobalAt(at Time, prio int, fn func()) {
	if fn == nil {
		panic("sim: nil global action")
	}
	g.globalSeq++
	ev := globalEvent{at: at, prio: int32(prio), seq: g.globalSeq, fn: fn}
	i := sort.Search(len(g.globals), func(i int) bool {
		o := g.globals[i]
		if o.at != ev.at {
			return o.at > ev.at
		}
		if o.prio != ev.prio {
			return o.prio > ev.prio
		}
		return o.seq > ev.seq
	})
	g.globals = append(g.globals, globalEvent{})
	copy(g.globals[i+1:], g.globals[i:])
	g.globals[i] = ev
}

// peekAll refreshes the per-shard next-event snapshot and returns the
// global minimum (ok reports whether any shard has work).
func (g *GroupOf[M]) peekAll() (Time, bool) {
	var best Time
	found := false
	for i, sh := range g.shards {
		at, ok := sh.Peek()
		g.haveT[i], g.times[i] = ok, at
		if ok && (!found || at < best) {
			best, found = at, true
		}
	}
	return best, found
}

// computeBounds fills g.bounds with each shard's conservative execution
// bound, capped at capAt. The bound on shard j is the classic lookahead-
// distance formula: min over every shard i with pending events of t_i +
// d(i, j), where d(i, j) is the smallest total lookahead along any message
// path from i to j — one hop for a direct sender, two hops for influence
// relayed through a third shard (including a shard with an empty queue,
// which can be reanimated by a message and forward it, and j itself, whose
// own events can round-trip back through a peer). This is a promise valid
// beyond the current round: future events on shard i never precede t_i, so
// no message can ever arrive at j below the bound — which is what lets a
// shard far ahead of its senders advance many lookahead windows in one
// round while the others catch up.
func (g *GroupOf[M]) computeBounds(capAt Time) {
	if g.hub >= 0 {
		// Star topology: the hub is one hop from every spoke; spokes are
		// two hops from each other (and from themselves, via the hub).
		hubT, hubHas := g.times[g.hub], g.haveT[g.hub]
		var minSpoke Time
		spokeHas := false
		for i := range g.shards {
			if i == g.hub || !g.haveT[i] {
				continue
			}
			if !spokeHas || g.times[i] < minSpoke {
				minSpoke, spokeHas = g.times[i], true
			}
		}
		for i := range g.bounds {
			b := capAt
			if i == g.hub {
				if spokeHas && minSpoke+g.lookahead < b {
					b = minSpoke + g.lookahead
				}
				if hubHas && hubT+2*g.lookahead < b {
					b = hubT + 2*g.lookahead
				}
			} else {
				if hubHas && hubT+g.lookahead < b {
					b = hubT + g.lookahead
				}
				if spokeHas && minSpoke+2*g.lookahead < b {
					b = minSpoke + 2*g.lookahead
				}
			}
			g.bounds[i] = b
		}
		return
	}
	// Fully connected topology: every other shard is one hop away, and a
	// shard's own events can return in two (out and back through any peer).
	// Min and second-min give min-except-self in one pass.
	const none = -1
	min1, min2 := Time(0), Time(0)
	arg1 := none
	has2 := false
	for i := range g.shards {
		if !g.haveT[i] {
			continue
		}
		t := g.times[i]
		switch {
		case arg1 == none:
			min1, arg1 = t, i
		case t < min1:
			min2, has2 = min1, true
			min1, arg1 = t, i
		case !has2 || t < min2:
			min2, has2 = t, true
		}
	}
	for i := range g.bounds {
		b := capAt
		other, ok := min1, arg1 != none
		if i == arg1 {
			other, ok = min2, has2
		}
		if ok && other+g.lookahead < b {
			b = other + g.lookahead
		}
		if g.haveT[i] && g.times[i]+2*g.lookahead < b {
			b = g.times[i] + 2*g.lookahead
		}
		g.bounds[i] = b
	}
}

// Run executes the sharded simulation up to and including horizon. On
// return every shard's clock sits exactly at horizon and all events with
// at <= horizon have executed — the same contract as Simulator.RunUntil on
// a single queue. Run may be called once per Group.
func (g *GroupOf[M]) Run(horizon Time) {
	g.startWorkers()
	defer g.stopWorkers()
	g.startWatchdog()
	defer g.stopWatchdog()

	for {
		minNext, hasWork := g.peekAll()
		hasG := len(g.globals) > 0 && g.globals[0].at <= horizon
		if hasG {
			nextG := g.globals[0].at
			if !hasWork || minNext >= nextG {
				// All shards have drained below nextG and undelivered
				// messages arrive at >= nextG (they were posted before this
				// barrier became due, under bounds capped at nextG): align
				// the clocks and execute the due globals in (prio, FIFO)
				// order. Shard events at exactly nextG run in later rounds,
				// after the barrier — as in a single queue, where the
				// barrier chains were scheduled first.
				for _, sh := range g.shards {
					sh.AdvanceTo(nextG)
				}
				for len(g.globals) > 0 && g.globals[0].at == nextG {
					ev := g.globals[0]
					g.globals = g.globals[1:]
					ev.fn()
				}
				// Globals may post cross-shard messages (with every clock on
				// nextG, an arrival at nextG+lookahead meets Post's bound with
				// equality). Merge them now: the bound formula only covers
				// messages future shard events will post, not ones already
				// sitting in an edge box.
				g.deliver()
				g.progress.Add(1)
				continue
			}
		}
		// Events at exactly the horizon belong to the final round below
		// (after any same-instant barrier globals), so only work strictly
		// below the horizon keeps the windowed loop going.
		if !hasWork || minNext >= horizon {
			break
		}
		capAt := horizon
		if hasG && g.globals[0].at < capAt {
			capAt = g.globals[0].at
		}
		g.computeBounds(capAt)
		g.round(0, false)
		g.progress.Add(1)
	}

	// Final round: events at exactly the horizon execute (RunUntil
	// semantics), their posted messages count as sent but — arriving at
	// > horizon thanks to the positive lookahead — stay pending, exactly
	// like a single queue's in-flight messages at the horizon. RunUntil
	// also leaves every clock at the horizon.
	g.round(horizon, true)
	g.progress.Add(1)
}

// round fans the current execution window out to the shard workers — only
// those with events below their bound — and merges the cross-shard messages
// they posted back into the destination queues.
func (g *GroupOf[M]) round(horizon Time, until bool) {
	dispatched := 0
	for i := range g.shards {
		if until {
			// The final round must run on every shard: RunUntil also
			// advances drained shards' clocks to the horizon.
			g.bounds[i] = horizon
		} else if !g.haveT[i] || g.times[i] >= g.bounds[i] {
			continue // idle this round: nothing below the bound
		}
		g.wg.Add(1)
		g.cmds[i] <- workerCmd{bound: g.bounds[i], until: until}
		dispatched++
	}
	g.snapshotStall(dispatched)
	if dispatched > 0 {
		g.wg.Wait()
	}
	g.deliver()
}

// deliver drains every edge touched this round into its destination shard,
// in ascending edge index: each message joins its edge's inbox and schedules
// the edge's delivery function at its arrival time. A destination queue
// breaks equal-time ties by insertion order, so the delivery events fire in
// the deterministic total order (arrival time, edge, per-edge sequence)
// independent of how the OS interleaved the workers.
func (g *GroupOf[M]) deliver() {
	g.drained = g.drained[:0]
	for i := range g.touched {
		g.drained = append(g.drained, g.touched[i]...)
		g.touched[i] = g.touched[i][:0]
	}
	if len(g.drained) == 0 {
		return
	}
	slices.Sort(g.drained)
	for _, edge := range g.drained {
		box := g.edgeBox[edge]
		dst := g.shards[g.edgeTo[edge]]
		fn := g.deliverFns[edge]
		monotone := true
		for i := range box {
			dst.ScheduleAt(box[i].at, fn)
			monotone = monotone && (i == 0 || box[i-1].at <= box[i].at)
		}
		in := &g.inboxes[edge]
		if monotone && len(in.buf) == 0 {
			// The outbox is already in inbox order: hand it over whole, and
			// the drained inbox's buffer becomes the next outbox.
			g.edgeBox[edge], in.buf = in.buf, box
			continue
		}
		for i := range box {
			in.push(box[i])
			box[i] = groupMsg[M]{}
		}
		g.edgeBox[edge] = box[:0]
	}
}

// deliverNext pops edge's earliest message and hands it to the receive
// function. The edge's delivery events fire in inbox order, so the message
// is the one this event was scheduled for; the arrival-time check turns any
// departure from that pairing into a loud failure.
func (g *GroupOf[M]) deliverNext(edge int) {
	e := g.inboxes[edge].pop()
	if now := g.shards[g.edgeTo[edge]].now; e.at != now {
		panic(fmt.Sprintf("sim: edge %d delivered a message due at %v at %v", edge, e.at, now))
	}
	g.recv(edge, e.m)
}

func (g *GroupOf[M]) startWorkers() {
	if g.started {
		panic("sim: group run re-entered")
	}
	g.started = true
	for i := range g.shards {
		ch := make(chan workerCmd)
		g.cmds[i] = ch
		sh := g.shards[i]
		go func() {
			for cmd := range ch {
				if cmd.until {
					sh.RunUntil(cmd.bound)
				} else {
					sh.RunBefore(cmd.bound)
				}
				g.wg.Done()
			}
		}()
	}
}

func (g *GroupOf[M]) stopWorkers() {
	for _, ch := range g.cmds {
		close(ch)
	}
}

// snapshotStall records the coordinator's view of the round for the
// watchdog dump. The mutex keeps the watchdog's read race-free.
func (g *GroupOf[M]) snapshotStall(dispatched int) {
	g.stallMu.Lock()
	g.stall.round++
	g.stall.times = append(g.stall.times[:0], g.times...)
	g.stall.haveT = append(g.stall.haveT[:0], g.haveT...)
	g.stall.bounds = append(g.stall.bounds[:0], g.bounds...)
	g.stall.dispatched = dispatched
	g.stallMu.Unlock()
}

// stallDump formats the last-round snapshot for the stall report.
func (g *GroupOf[M]) stallDump(budget time.Duration, progress uint64) string {
	g.stallMu.Lock()
	defer g.stallMu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "sim: shard group stalled for %v (no round completed); progress=%d round=%d dispatched=%d",
		budget, progress, g.stall.round, g.stall.dispatched)
	for i := range g.stall.times {
		next := "drained"
		if i < len(g.stall.haveT) && g.stall.haveT[i] {
			next = fmt.Sprintf("%v", g.stall.times[i])
		}
		var bound any = "-"
		if i < len(g.stall.bounds) {
			bound = g.stall.bounds[i]
		}
		fmt.Fprintf(&b, "\n  shard %d: next=%s bound=%v", i, next, bound)
	}
	return b.String()
}

func (g *GroupOf[M]) startWatchdog() {
	if g.watchdog <= 0 {
		return
	}
	stop := make(chan struct{})
	g.stopDog = stop
	budget := g.watchdog
	onStall := g.onStall
	go func() {
		last := g.progress.Load()
		stalled := time.Duration(0)
		tick := budget / 10
		if tick <= 0 {
			tick = time.Millisecond
		}
		for {
			select {
			case <-stop:
				return
			case <-time.After(tick):
			}
			cur := g.progress.Load()
			if cur != last {
				last, stalled = cur, 0
				continue
			}
			stalled += tick
			if stalled >= budget {
				dump := g.stallDump(budget, cur)
				if onStall != nil {
					onStall(dump)
					return
				}
				panic(dump)
			}
		}
	}()
}

func (g *GroupOf[M]) stopWatchdog() {
	if g.stopDog != nil {
		close(g.stopDog)
		g.stopDog = nil
	}
}
