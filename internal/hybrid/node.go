package hybrid

// The node layer: the two partition types the protocol runs on — SiteNode,
// one distributed system, and CentralNode, the central computing complex —
// with their runtime state, server construction, admission and routing, and
// the strategy's view of them. A node is one partition + its share of the
// lifecycle + an observer bus, built on any exec.Scheduler: the Engine wires
// N+1 of them onto simulator queues through simWire, internal/cluster puts
// one on a wall-clock exec.Loop behind a TCP wire. What the two tiers share
// — servers, lock table, resident runs and the execution path — is the
// embedded partition (path.go); the commit points and the commit protocol are
// in commit.go, update propagation in propagate.go.

import (
	"fmt"

	"hybriddb/internal/exec"
	"hybriddb/internal/flatmap"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/routing"
	"hybriddb/internal/trace"
	"hybriddb/internal/workload"
)

// nodeEnv is what the partitions of one system share: configuration, the
// observer bus, and the two directions of the star network. The Engine
// embeds one by value for all of its nodes; a standalone node owns its own.
type nodeEnv struct {
	cfg  Config
	bus  obs.Bus
	up   Sender
	down Sender

	// Partial-replication precompute (Config.CentralHotFraction < 1): a
	// partition element at offset >= hotPerPart is cold — not centrally
	// resident — and a central-path call on it pays ColdFetchDelay.
	partialRepl bool
	hotPerPart  uint32
	partSize    uint32

	// poolSpecs says completed transactions' specs are the engine's own
	// (generator-produced, recycled through NextInto); replayed and
	// submitted specs belong to their caller and are left alone.
	poolSpecs bool
}

func (env *nodeEnv) init(cfg Config, observers []obs.Observer) {
	env.cfg = cfg
	for _, o := range observers {
		env.bus.Subscribe(o)
	}
	env.partSize = cfg.WorkloadConfig().PartitionSize()
	if cfg.CentralHotFraction < 1 {
		env.partialRepl = true
		env.hotPerPart = uint32(cfg.CentralHotFraction * float64(env.partSize))
	} else {
		env.hotPerPart = env.partSize
	}
}

// detailed reports whether a detail (trace) observer is subscribed; callers
// with expensive notes check it before rendering them.
func (env *nodeEnv) detailed() bool { return env.bus.HasDetail() }

func (env *nodeEnv) emitDetail(at float64, kind trace.Kind, txn int64, site int, elem uint32, note string) {
	env.bus.EmitDetail(obs.Event{
		At: at, Kind: obs.TraceDetail,
		Trace: kind, Txn: txn, Site: site, Elem: elem, Note: note,
	})
}

// isCold reports whether a lockspace element is outside the central
// complex's replicated hot fragment. Offsets are taken within the element's
// partition; the remainder elements of an uneven split (attached to the last
// site) sit past its partition size and are always cold.
func (env *nodeEnv) isCold(elem uint32) bool {
	site := elem / env.partSize
	if int(site) >= env.cfg.Sites {
		site = uint32(env.cfg.Sites - 1)
	}
	return elem-site*env.partSize >= env.hotPerPart
}

// ValidateStandalone reports whether cfg can run on standalone nodes (the
// live cluster): a valid Config minus the corner only the whole-system
// Engine can honor — a node on its own executor has no peer state to read
// synchronously.
func ValidateStandalone(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Feedback == FeedbackIdeal {
		return fmt.Errorf("hybrid: ideal feedback requires synchronously readable central state; a standalone node cannot provide it")
	}
	return nil
}

// SiteNode is one distributed system: a partition executing the class A
// transactions it retains, plus admission, routing and the site's side of
// the protocol.
type SiteNode struct {
	partition

	// strategy routes this site's class A arrivals: a per-site fork of a
	// routing.SiteLocal, the event loop's instance of a routing.LoopLocal,
	// or the shared stateless value.
	strategy routing.Strategy
	// ideal is the central node a FeedbackIdeal site reads synchronously —
	// set by the Engine only, and only in that mode.
	ideal *CentralNode

	// parked holds what OnReply needs of each transaction shipped from here
	// and not yet answered — its input and arrival instant, by id. A shipped
	// transaction takes no run at home: central executes it in one of its
	// own. Nil until the first ship: construction stays as cheap as for a
	// site that retains everything.
	parked *flatmap.Map[lock.ID, parkedTxn]

	shippedOut int // class A transactions currently shipped from here

	// Stale view of the central state, refreshed per the Feedback mode.
	view Snapshot

	lastLocalRT   float64
	lastShippedRT float64

	// Batched asynchronous updates awaiting the next flush
	// (Config.UpdateBatchWindow or Config.EpochLength > 0).
	pendingUpdates []uint32
	flushPending   bool

	// specFree recycles the workload.Txn specs of completed transactions
	// (generator runs only, never replayed or submitted ones — those specs
	// belong to the caller). A spec is reused only after its completion here,
	// by which point central's run has dropped it and every in-flight message
	// payload derived from it has been copied out.
	specFree []*workload.Txn

	// updFree recycles the update-set slices that ride the asynchronous
	// update messages of §2. Unlike scratch buffers these live across the
	// propagate round trip: commit fills one, the message owns it in flight,
	// and the central acknowledgement hands it back to this pool (the ack
	// executes on this site's executor).
	updFree [][]uint32

	// arriveFn is the pre-bound Poisson-arrival callback (admit the next
	// generated transaction, schedule the following arrival), so steady-state
	// arrival scheduling allocates no closures.
	arriveFn func()
}

// parkedTxn is a shipped transaction as its home site remembers it.
type parkedTxn struct {
	spec      *workload.Txn
	arrivedAt float64
}

// CentralNode is the central computing complex: a partition executing class
// B and shipped class A transactions, plus central's side of the protocol.
// In a sharded run it owns shard 0.
type CentralNode struct {
	partition

	// Scratch buffers, reused across events (never captured by a closure or
	// held across a message): the authentication fan-out's touched-site set
	// and the update application's holder walk.
	sitesBuf   []int
	holdersBuf []lock.ID
}

func (s *SiteNode) init(env *nodeEnv, idx int, sched exec.Scheduler) {
	s.partition.init(env, idx, sched, env.cfg.LocalMIPS, env.cfg.DisksPerSite, s)
}

func (c *CentralNode) init(env *nodeEnv, sched exec.Scheduler) {
	c.partition.init(env, -1, sched, env.cfg.CentralMIPS, env.cfg.DisksCentral, c)
	c.coldFetch = env.partialRepl
}

// NewSiteNode builds local site idx as a standalone node: its handlers run
// on sched, its three outbound messages leave through up, and its lifecycle
// events reach the given observers. The site is one event loop, so it takes
// its own instance of a routing.LoopLocal strategy (several sites may be
// built from one such value); a routing.SiteLocal strategy should arrive
// already forked for this site. Submitted specs stay the caller's.
func NewSiteNode(cfg Config, idx int, sched Scheduler, strategy routing.Strategy, up Sender, observers ...obs.Observer) (*SiteNode, error) {
	if err := ValidateStandalone(cfg); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= cfg.Sites {
		return nil, fmt.Errorf("hybrid: site index %d out of range [0,%d)", idx, cfg.Sites)
	}
	if strategy == nil {
		return nil, fmt.Errorf("hybrid: nil strategy")
	}
	env := &nodeEnv{up: up}
	env.init(cfg, observers)
	s := &SiteNode{strategy: loopInstance(strategy)}
	s.init(env, idx, sched)
	s.armEpochTick()
	return s, nil
}

// NewCentralNode builds the central complex as a standalone node: handlers
// on sched, its four outbound messages through down, events to observers.
func NewCentralNode(cfg Config, sched Scheduler, down Sender, observers ...obs.Observer) (*CentralNode, error) {
	if err := ValidateStandalone(cfg); err != nil {
		return nil, err
	}
	env := &nodeEnv{down: down}
	env.init(cfg, observers)
	c := &CentralNode{}
	c.init(env, sched)
	return c, nil
}

// loopInstance returns the instance of a strategy that one event loop routes
// with: a routing.LoopLocal's loop-confined instance, anything else as is
// (a per-site fork of a routing.SiteLocal is confined already). This is the
// one place the run path calls ForLoop.
func loopInstance(s routing.Strategy) routing.Strategy {
	if _, forked := s.(routing.SiteLocal); forked {
		return s
	}
	if ll, ok := s.(routing.LoopLocal); ok {
		return ll.ForLoop()
	}
	return s
}

// Strategy returns the instance this site routes with.
func (s *SiteNode) Strategy() routing.Strategy { return s.strategy }

// takeUpdBuf pops a recycled update-set buffer from the site's pool, or
// returns nil (append then allocates the pool's first generation).
func (s *SiteNode) takeUpdBuf() []uint32 {
	if n := len(s.updFree); n > 0 {
		buf := s.updFree[n-1]
		s.updFree[n-1] = nil
		s.updFree = s.updFree[:n-1]
		return buf[:0]
	}
	return nil
}

// Admit processes one arriving transaction, whatever its source (the
// engine's arrival process, a replayed trace, a load generator's
// submission): class B ships unconditionally, class A consults the routing
// strategy. It executes on the site's executor.
func (s *SiteNode) Admit(spec *workload.Txn) {
	if s.env.detailed() {
		s.emit(trace.Arrive, spec.ID, 0, "class "+spec.Class.String())
	}

	if spec.Class == workload.ClassB {
		s.observe(obs.Event{Kind: obs.TxnArrive, Txn: spec.ID, ClassB: true, Shipped: true})
		s.emit(trace.RouteShip, spec.ID, 0, "class B")
		s.ship(spec)
		return
	}
	st := s.routingState()
	shipped := s.strategy.Decide(st) == routing.Ship
	s.observe(obs.Event{Kind: obs.TxnArrive, Txn: spec.ID, Shipped: shipped, Value: st.ViewAge})
	if shipped {
		s.emit(trace.RouteShip, spec.ID, 0, "")
		s.ship(spec)
		return
	}
	s.emit(trace.RouteLocal, spec.ID, 0, "")
	t := s.takeRun(spec)
	t.arrivedAt = s.sched.Now()
	s.start(t)
}

// away returns the transactions shipped from here and not yet answered.
func (s *SiteNode) away() int {
	if s.parked == nil {
		return 0
	}
	return s.parked.Len()
}

// ship sends a transaction's input to the central complex and parks what its
// completion will need.
func (s *SiteNode) ship(spec *workload.Txn) {
	if spec.Class == workload.ClassA {
		s.shippedOut++
	}
	if s.parked == nil {
		s.parked = flatmap.New[lock.ID, parkedTxn](0)
	}
	s.parked.Put(lock.ID(spec.ID), parkedTxn{spec: spec, arrivedAt: s.sched.Now()})
	s.env.up.Send(Message{Kind: MsgShip, Site: s.idx, Txn: spec.ID, Spec: spec})
}

// OnShip receives a shipped transaction's input — the Ship message — and
// starts it in a run of central's own.
func (c *CentralNode) OnShip(spec *workload.Txn) {
	c.observe(obs.Event{Kind: obs.ShipArrive, Txn: spec.ID, Aux: float64(spec.HomeSite)})
	c.start(c.takeRun(spec))
}

// routingState assembles the strategy's view at the arrival site: local
// fields observed directly, central fields from the site's (possibly stale)
// snapshot unless the feedback mode is ideal.
func (s *SiteNode) routingState() routing.State {
	st := routing.State{
		Now:           s.sched.Now(),
		Site:          s.idx,
		LocalQueue:    s.cpu.QueueLength(),
		LocalInSystem: s.inSystem,
		LocalLocks:    s.locks.LocksHeld(),
		LastLocalRT:   s.lastLocalRT,
		LastShippedRT: s.lastShippedRT,
	}
	if s.ideal != nil {
		st.CentralQueue = s.ideal.cpu.QueueLength()
		st.CentralInSystem = s.ideal.inSystem
		st.CentralLocks = s.ideal.locks.LocksHeld()
		st.ViewAge = 0
	} else {
		st.CentralQueue = s.view.Queue
		st.CentralInSystem = s.view.InSystem
		st.CentralLocks = s.view.Locks
		st.ViewAge = s.sched.Now() - s.view.At
	}
	return st
}

// siteUtilizations computes per-site CPU utilizations over the measurement
// window, for Result assembly.
func siteUtilizations(sites []*SiteNode, window float64) (perSite []float64, mean, max float64) {
	perSite = make([]float64, len(sites))
	var busy float64
	for i, ls := range sites {
		u := (ls.cpu.BusyTime() - ls.busyAtWarmup) / window
		perSite[i] = u
		busy += u
		if u > max {
			max = u
		}
	}
	return perSite, busy / float64(len(sites)), max
}
