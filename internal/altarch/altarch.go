// Package altarch implements the two architectures the paper's introduction
// positions the hybrid against (§1):
//
//   - the fully centralized system, in which every transaction's input is
//     shipped to the central complex, processed there under ordinary
//     locking, and the output shipped back — no use of geographic locality;
//   - the fully distributed system [GRAY86, LARS85], in which transactions
//     run at their home site and every reference to data mastered elsewhere
//     becomes a remote function call; cross-site commits use a two-phase
//     protocol and cross-site deadlocks are broken by lock-wait timeouts.
//
// Both are one engine (run) over two placements of the same work: where a
// transaction executes, where each element lives, and what links them.
//
// The paper cites [DIAS87] for the motivating claim: the distributed system
// beats the centralized one only when remote calls per transaction are
// significantly below one, and the hybrid was designed to get the best of
// both. CompareArchitectures regenerates that comparison against the hybrid
// simulator.
package altarch

import (
	"fmt"

	"hybriddb/internal/cpu"
	"hybriddb/internal/exec"
	"hybriddb/internal/lock"
	"hybriddb/internal/rng"
	"hybriddb/internal/sim"
	"hybriddb/internal/stats"
	"hybriddb/internal/workload"

	"hybriddb/internal/hybrid"
)

// Result summarises a run of one alternative architecture.
type Result struct {
	Architecture string
	Window       float64

	MeanRT     float64
	P95RT      float64
	Throughput float64

	Generated uint64
	Completed uint64
	Aborts    uint64 // deadlock and timeout aborts

	UtilCentral   float64 // centralized architecture only
	UtilLocalMean float64 // distributed architecture only

	// RemoteCallsPerTxn is the measured average number of remote function
	// calls per transaction (distributed architecture only) — the quantity
	// [DIAS87] says governs the centralized/distributed comparison.
	RemoteCallsPerTxn float64
}

// RunCentralized simulates the fully centralized system under the shared
// configuration: every transaction (class A and B alike) is shipped to the
// central site, runs there under ordinary two-phase locking with deadlock
// aborts, and the reply is shipped back.
func RunCentralized(cfg hybrid.Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return run(cfg, placement{arch: "centralized", nodes: 1, mips: cfg.CentralMIPS, ship: true}), nil
}

// DefaultLockTimeout is the lock-wait timeout used to break cross-site
// deadlocks in the distributed architecture — the standard mechanism of the
// era's distributed databases (global wait-for graphs being impractical over
// long-haul links).
const DefaultLockTimeout = 5.0

// RunDistributed simulates the fully distributed system: transactions run at
// their home site; every reference to an element mastered elsewhere becomes
// a remote function call (request shipped to the master site, executed and
// locked there, reply shipped back); commits involving remote sites pay a
// two-phase commit round; lock waits are bounded by lockTimeout, after which
// the transaction aborts and restarts (this also breaks cross-site
// deadlocks, which no single site's wait-for graph can see).
func RunDistributed(cfg hybrid.Config, lockTimeout float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if lockTimeout <= 0 {
		return Result{}, fmt.Errorf("altarch: lock timeout %v must be positive", lockTimeout)
	}
	return run(cfg, placement{
		arch: "distributed", nodes: cfg.Sites, mips: cfg.LocalMIPS,
		atHome: true, partitioned: true, lockTimeout: lockTimeout, releaseAll: true,
	}), nil
}

// placement says where an architecture puts the shared workload: on nodes
// processors of mips MIPS, each with its own lock manager.
type placement struct {
	arch  string // Result.Architecture
	nodes int
	mips  float64
	// atHome runs a transaction at its home site rather than at node 0, and
	// partitioned keeps an element at its master site (PartitionOf) rather
	// than at node 0. A call on an element that lives away from the
	// executing node is a remote function call.
	atHome, partitioned bool
	// ship sends a transaction's input to its executing node and the reply
	// back, CommDelay each way.
	ship bool
	// lockTimeout, when positive, aborts a transaction whose lock wait
	// outlasts it. A deadlock one node's wait-for graph sees aborts at once.
	lockTimeout float64
	// releaseAll frees the executing node's locks at commit with one
	// ReleaseAll (ascending element order) instead of one Release per lock
	// in acquisition order.
	releaseAll bool
}

// txn is one transaction of a run, across its attempts.
type txn struct {
	spec      *workload.Txn
	arrivedAt float64
	attempt   int
	epoch     int // invalidates stale grants and timeouts after an abort
	// locked[n] lists the elements this attempt holds at node n, in
	// acquisition order.
	locked [][]uint32
}

// run simulates cfg's workload under placement p.
func run(cfg hybrid.Config, p placement) Result {
	var (
		s       = sim.New()
		root    = rng.New(cfg.Seed)
		wl      = cfg.WorkloadConfig()
		gen     = workload.NewGenerator(wl, root.Split().Uint64())
		horizon = cfg.Warmup + cfg.Duration

		rt          stats.Welford
		hist        = stats.NewHistogram(0, 60, 600)
		measuring   bool
		generated   uint64
		completed   uint64
		aborts      uint64
		remoteCalls uint64
	)

	type node struct {
		cpu   *cpu.Server
		locks *lock.Manager
		busy0 float64
	}
	nodes := make([]*node, p.nodes)
	for i := range nodes {
		nodes[i] = &node{cpu: cpu.NewServer(exec.Sim(s), p.mips), locks: lock.NewManager()}
	}
	execAt := func(t *txn) int {
		if p.atHome {
			return t.spec.HomeSite
		}
		return 0
	}

	// release frees every lock t holds, node by node in ascending order: at
	// the executing node at once, elsewhere by a message CommDelay later.
	release := func(t *txn, abort bool) {
		id, at := lock.ID(t.spec.ID), execAt(t)
		for n, elems := range t.locked {
			if len(elems) == 0 {
				continue
			}
			locks := nodes[n].locks
			each := func() {
				for _, elem := range elems {
					locks.Release(id, elem)
				}
			}
			switch {
			case n != at:
				s.Schedule(cfg.CommDelay, each)
			case abort || p.releaseAll:
				locks.ReleaseAll(id)
			default:
				each()
			}
			t.locked[n] = nil // not [:0]: a pending release message reads elems
		}
	}

	var call func(t *txn, i int)

	abort := func(t *txn) {
		if measuring {
			aborts++
		}
		// Cancel any queued request at the node we were waiting on.
		for _, n := range nodes {
			n.locks.CancelRequest(lock.ID(t.spec.ID))
		}
		release(t, true)
		t.attempt++
		t.epoch++
		s.Schedule(cfg.RestartDelay, func() { call(t, 0) })
	}

	commit := func(t *txn) {
		finish := func() {
			release(t, false)
			reply := func() {
				completed++
				if measuring {
					r := s.Now() - t.arrivedAt
					rt.Add(r)
					hist.Add(r)
				}
			}
			if p.ship {
				// Reply to the origin terminal.
				s.Schedule(cfg.CommDelay, reply)
				return
			}
			reply()
		}
		for n, elems := range t.locked {
			if n != execAt(t) && len(elems) > 0 {
				// Two-phase commit: prepare round trip to the participants,
				// then commit messages (releases ride on them).
				s.Schedule(2*cfg.CommDelay, finish)
				return
			}
		}
		// Purely local: commit without any communication [DATE81].
		finish()
	}

	// acquire obtains elem at node n for t, then calls next. A deadlock local
	// to the node aborts t at once; so does a wait past p.lockTimeout.
	acquire := func(t *txn, n int, elem uint32, mode lock.Mode, next func()) {
		locks, id := nodes[n].locks, lock.ID(t.spec.ID)
		if _, held := locks.Holds(id, elem); held {
			next()
			return
		}
		epoch := t.epoch
		granted := func() {
			if t.epoch != epoch {
				return // aborted while waiting; grant is stale
			}
			t.locked[n] = append(t.locked[n], elem)
			next()
		}
		switch locks.Acquire(id, elem, mode, granted) {
		case lock.Granted:
			granted()
		case lock.Queued:
			if p.lockTimeout > 0 {
				s.Schedule(p.lockTimeout, func() {
					if t.epoch != epoch {
						return
					}
					if _, waiting := locks.Waiting(id); waiting {
						abort(t)
					}
				})
			}
		case lock.Deadlock:
			abort(t)
		}
	}

	call = func(t *txn, i int) {
		if i >= cfg.CallsPerTxn {
			commit(t)
			return
		}
		at := execAt(t)
		elem, mode := t.spec.Elements[i], t.spec.Modes[i]
		master := 0
		if p.partitioned {
			master = wl.PartitionOf(elem)
		}
		epoch := t.epoch
		proceed := func() {
			if t.epoch != epoch {
				return
			}
			if t.attempt == 1 {
				s.Schedule(cfg.IOTimePerCall, func() { call(t, i+1) })
				return
			}
			call(t, i+1)
		}
		if master == at {
			nodes[at].cpu.Submit(cfg.InstrPerCall, func() {
				acquire(t, at, elem, mode, proceed)
			})
			return
		}
		// Remote function call: request to the master site, execute the
		// call there (CPU + lock + I/O at the data), reply home.
		if measuring {
			remoteCalls++
		}
		s.Schedule(cfg.CommDelay, func() {
			nodes[master].cpu.Submit(cfg.InstrPerCall, func() {
				acquire(t, master, elem, mode, func() {
					done := func() {
						s.Schedule(cfg.CommDelay, proceed)
					}
					if t.attempt == 1 {
						s.Schedule(cfg.IOTimePerCall, done)
						return
					}
					done()
				})
			})
		})
	}

	start := func(t *txn) {
		nodes[execAt(t)].cpu.Submit(cfg.InstrOverhead, func() {
			s.Schedule(cfg.SetupIOTime, func() { call(t, 0) })
		})
	}

	arrivalSeeds := root.Split()
	for site := 0; site < cfg.Sites; site++ {
		arr := workload.NewArrivals(cfg.SiteRate(site), arrivalSeeds.Uint64())
		var schedule func()
		schedule = func() {
			gap := arr.Next()
			if s.Now()+gap > horizon {
				return
			}
			s.Schedule(gap, func() {
				generated++
				t := &txn{
					spec: gen.Next(site), arrivedAt: s.Now(), attempt: 1,
					locked: make([][]uint32, p.nodes),
				}
				if p.ship {
					// Input message shipped to the executing node.
					s.Schedule(cfg.CommDelay, func() { start(t) })
				} else {
					start(t)
				}
				schedule()
			})
		}
		schedule()
	}
	s.Schedule(cfg.Warmup, func() {
		measuring = true
		for _, n := range nodes {
			n.busy0 = n.cpu.BusyTime()
		}
	})
	s.RunUntil(horizon)

	window := cfg.Duration
	var util float64
	for _, n := range nodes {
		util += (n.cpu.BusyTime() - n.busy0) / window
	}
	util /= float64(len(nodes))
	var perTxn float64
	if rt.Count() > 0 {
		perTxn = float64(remoteCalls) / float64(rt.Count())
	}
	res := Result{
		Architecture:      p.arch,
		Window:            window,
		MeanRT:            rt.Mean(),
		P95RT:             hist.Quantile(0.95),
		Throughput:        float64(rt.Count()) / window,
		Generated:         generated,
		Completed:         completed,
		Aborts:            aborts,
		RemoteCallsPerTxn: perTxn,
	}
	if p.atHome {
		res.UtilLocalMean = util
	} else {
		res.UtilCentral = util
	}
	return res
}
