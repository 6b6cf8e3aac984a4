// Package routing implements the load-sharing strategies of §3 of the
// paper. Each strategy decides, for an incoming class A transaction, whether
// to run it at its home site or ship it to the central site. Class B
// transactions never reach a strategy — the engine ships them
// unconditionally.
//
// Strategies see a State snapshot assembled by the engine. The local-site
// fields are current; the central-site fields are the site's possibly stale
// view, updated only when a message from the central site arrives (§4.2:
// "the information of the queue length at the central site is delayed").
package routing

import (
	"fmt"

	"hybriddb/internal/model"
	"hybriddb/internal/rng"
)

// Decision is a routing outcome.
type Decision uint8

// Routing outcomes.
const (
	// RunLocal executes the transaction at its home site.
	RunLocal Decision = iota + 1
	// Ship sends the transaction to the central site.
	Ship
)

// String returns "local" or "ship".
func (d Decision) String() string {
	switch d {
	case RunLocal:
		return "local"
	case Ship:
		return "ship"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// State is the information available to a strategy at decision time.
type State struct {
	Now  float64 // simulated time of the decision
	Site int     // arrival site index

	// Local site, observed directly.
	LocalQueue    int // CPU queue length including the job in service (q_i)
	LocalInSystem int // transactions at the site in any phase (n_i)
	LocalLocks    int // locks held at the site

	// Central site, from the site's last received snapshot.
	CentralQueue    int     // q_c at snapshot time
	CentralInSystem int     // n_c at snapshot time
	CentralLocks    int     // locks held at central at snapshot time
	ViewAge         float64 // Now minus snapshot time; 0 under ideal information

	// Most recent measured response times of each kind completed from this
	// site; 0 until first observation.
	LastLocalRT   float64
	LastShippedRT float64
}

// Strategy routes incoming class A transactions.
type Strategy interface {
	// Name identifies the strategy in reports (e.g. "min-average/nis").
	Name() string
	// Decide routes one incoming class A transaction.
	Decide(st State) Decision
}

// SiteLocal marks a stateful strategy that can fork one independent instance
// per site. The engine forks every stateful strategy at construction so each
// site's decisions are a pure function of that site's arrival sequence —
// required for the sharded engine (sites decide concurrently) and matched by
// the sequential oracle so both modes draw identical decision streams.
// Stateless strategies are shared across sites unchanged.
type SiteLocal interface {
	Strategy
	// ForSite returns this site's independent instance, seeded from the
	// engine's per-site strategy stream.
	ForSite(site int, seed uint64) Strategy
}

// ---- No load sharing.

// AlwaysLocal is the no-load-sharing baseline: every class A transaction
// runs at its home site.
type AlwaysLocal struct{}

// Name implements Strategy.
func (AlwaysLocal) Name() string { return "none" }

// Decide implements Strategy.
func (AlwaysLocal) Decide(State) Decision { return RunLocal }

// ---- Static probabilistic sharing.

// Static ships each class A transaction independently with fixed
// probability, the paper's static (probabilistic) load sharing. The optimal
// probability comes from model.OptimalShipFraction.
type Static struct {
	p   float64
	src *rng.Source
}

// NewStatic returns a static strategy shipping with probability p.
func NewStatic(p float64, seed uint64) *Static {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("routing: ship probability %v out of [0,1]", p))
	}
	return &Static{p: p, src: rng.New(seed)}
}

// ShipProbability returns the configured probability.
func (s *Static) ShipProbability() float64 { return s.p }

// Name implements Strategy.
func (s *Static) Name() string { return fmt.Sprintf("static(%.3f)", s.p) }

// Decide implements Strategy.
func (s *Static) Decide(State) Decision {
	if s.src.Bool(s.p) {
		return Ship
	}
	return RunLocal
}

// ForSite implements SiteLocal: each site ships independently with the same
// probability from its own stream.
func (s *Static) ForSite(site int, seed uint64) Strategy {
	return NewStatic(s.p, seed)
}

// ---- Heuristic on measured response time (§3.2.3).

// MeasuredRT ships the next transaction if the last shipped transaction's
// measured response time was below the last locally run one's, attempting to
// keep the two comparable. Until both kinds have been observed it explores
// the unobserved option.
type MeasuredRT struct{}

// Name implements Strategy.
func (MeasuredRT) Name() string { return "measured-rt" }

// Decide implements Strategy.
func (MeasuredRT) Decide(st State) Decision {
	switch {
	case st.LastLocalRT == 0:
		return RunLocal
	case st.LastShippedRT == 0:
		return Ship
	case st.LastShippedRT < st.LastLocalRT:
		return Ship
	default:
		return RunLocal
	}
}

// ---- Heuristic on queue length (§3.2.4).

// QueueLength ships when the (last seen) central CPU queue is shorter than
// the local one — the basic send-to-shorter-queue heuristic.
type QueueLength struct{}

// Name implements Strategy.
func (QueueLength) Name() string { return "queue-length" }

// Decide implements Strategy.
func (QueueLength) Decide(st State) Decision {
	if st.CentralQueue < st.LocalQueue {
		return Ship
	}
	return RunLocal
}

// QueueThreshold is the tuned extension of §3.2.4 / Fig 4.4: utilizations
// are estimated from the queue lengths and the transaction is shipped when
// the local utilization exceeds the central utilization by more than the
// threshold. Negative thresholds ship even when the local site is the less
// utilized one (profitable when the central CPU is much faster).
type QueueThreshold struct {
	// Theta is the shipping threshold on (ρ_local − ρ_central).
	Theta float64
}

// Name implements Strategy.
func (q QueueThreshold) Name() string { return fmt.Sprintf("queue-threshold(%+.2f)", q.Theta) }

// Decide implements Strategy.
func (q QueueThreshold) Decide(st State) Decision {
	rhoL := model.UtilizationFromQueue(st.LocalQueue, 0)
	rhoC := model.UtilizationFromQueue(st.CentralQueue, 0)
	if rhoL-rhoC > q.Theta {
		return Ship
	}
	return RunLocal
}

// ---- Model-based strategies (§3.2.1, §3.2.2).

// Estimator selects how the model-based strategies estimate utilization.
type Estimator uint8

// Utilization estimators.
const (
	// FromQueueLength uses the CPU queue length (§3.2.1a).
	FromQueueLength Estimator = iota + 1
	// FromInSystem uses the number of transactions in the system,
	// capturing also transactions in I/O and lock wait (§3.2.1b).
	FromInSystem
)

func (e Estimator) String() string {
	switch e {
	case FromQueueLength:
		return "ql"
	case FromInSystem:
		return "nis"
	default:
		return fmt.Sprintf("Estimator(%d)", uint8(e))
	}
}

// routedCorrection is the correction term a of §3.2.1 accounting for the
// utilization the routed transaction adds to its destination. The paper's
// printed α expression is OCR-garbled; a full extra job (a=1) double-counts
// the transaction's own service time (already in the response-time service
// terms) and makes shipping win even on an idle system, which contradicts
// Fig 4.3's near-zero dynamic ship fractions at low rates. Half a job keeps
// the bias against the destination without that artifact. DESIGN.md §4.
const routedCorrection = 0.5

// LoopLocal marks a strategy whose decisions are a pure function of the State
// but which can decide faster with scratch state that only one goroutine may
// touch. ForLoop returns an instance for one event loop: it decides exactly
// as the receiver does, and every site whose events run on that loop may
// share it. The engine asks for one per event loop at the start of Run (one
// in a sequential run, one per worker shard in a sharded one), a live site
// for its own loop. A strategy whose decisions depend on its own history is
// a SiteLocal instead.
type LoopLocal interface {
	Strategy
	// ForLoop returns an instance confined to one event loop.
	ForLoop() Strategy
}

// caseUtilizations returns the utilization estimates of the two candidate
// routings. Case 1 runs the incoming transaction locally (correction term on
// the local estimator), case 2 ships it (correction on the central
// estimator).
func caseUtilizations(p model.Params, e Estimator, st State) (rhoL1, rhoC1, rhoL2, rhoC2 float64) {
	switch e {
	case FromQueueLength:
		rhoL1 = model.UtilizationFromQueue(st.LocalQueue, routedCorrection)
		rhoC1 = model.UtilizationFromQueue(st.CentralQueue, 0)
		rhoL2 = model.UtilizationFromQueue(st.LocalQueue, 0)
		rhoC2 = model.UtilizationFromQueue(st.CentralQueue, routedCorrection)
	case FromInSystem:
		rhoL1 = p.UtilizationFromCount(p.LocalMIPS, st.LocalInSystem, routedCorrection)
		rhoC1 = p.UtilizationFromCount(p.CentralMIPS, st.CentralInSystem, 0)
		rhoL2 = p.UtilizationFromCount(p.LocalMIPS, st.LocalInSystem, 0)
		rhoC2 = p.UtilizationFromCount(p.CentralMIPS, st.CentralInSystem, routedCorrection)
	default:
		panic(fmt.Sprintf("routing: unknown estimator %d", e))
	}
	return rhoL1, rhoC1, rhoL2, rhoC2
}

// MinIncoming minimizes the estimated response time of the incoming
// transaction alone (§3.2.1), the classic approach in the load-balancing
// literature.
type MinIncoming struct {
	Params    model.Params
	Estimator Estimator
}

// Name implements Strategy.
func (m MinIncoming) Name() string { return "min-incoming/" + m.Estimator.String() }

// Decide implements Strategy.
func (m MinIncoming) Decide(st State) Decision { return m.decide(nil, st) }

// decide compares the incoming transaction's own estimate under each
// routing: run locally in case 1, shipped in case 2.
func (m MinIncoming) decide(memo *model.RaceMemo, st State) Decision {
	rhoL1, rhoC1, rhoL2, rhoC2 := caseUtilizations(m.Params, m.Estimator, st)
	local := model.EstimateLocal(m.Params, memo, rhoL1, rhoC1, st.LocalLocks, st.CentralLocks)
	shipped := model.EstimateCentral(m.Params, memo, rhoL2, rhoC2, st.LocalLocks, st.CentralLocks)
	if shipped < local {
		return Ship
	}
	return RunLocal
}

// ForLoop implements LoopLocal.
func (m MinIncoming) ForLoop() Strategy { return &minIncomingLoop{MinIncoming: m} }

// minIncomingLoop is MinIncoming with one event loop's P_f memo.
type minIncomingLoop struct {
	MinIncoming
	memo model.RaceMemo
}

func (l *minIncomingLoop) Decide(st State) Decision { return l.decide(&l.memo, st) }

// Stats returns the memo's lookup counts.
func (l *minIncomingLoop) Stats() model.MemoStats { return l.memo.Stats() }

// MinAverage minimizes the estimated average response time of all
// transactions currently in the system, not just the incoming one (§3.2.2).
// The paper finds the FromInSystem variant to be the best strategy overall.
type MinAverage struct {
	Params    model.Params
	Estimator Estimator
}

// Name implements Strategy.
func (m MinAverage) Name() string { return "min-average/" + m.Estimator.String() }

// Decide implements Strategy.
func (m MinAverage) Decide(st State) Decision { return m.decide(nil, st) }

func (m MinAverage) decide(memo *model.RaceMemo, st State) Decision {
	p := m.Params
	rhoL1, rhoC1, rhoL2, rhoC2 := caseUtilizations(p, m.Estimator, st)
	local1 := model.EstimateLocal(p, memo, rhoL1, rhoC1, st.LocalLocks, st.CentralLocks)
	central1 := model.EstimateCentral(p, memo, rhoL1, rhoC1, st.LocalLocks, st.CentralLocks)
	local2 := model.EstimateLocal(p, memo, rhoL2, rhoC2, st.LocalLocks, st.CentralLocks)
	central2 := model.EstimateCentral(p, memo, rhoL2, rhoC2, st.LocalLocks, st.CentralLocks)
	nL := float64(st.LocalInSystem)
	nC := float64(st.CentralInSystem)
	total := nL + nC + 1
	avg1 := ((nL+1)*local1 + nC*central1) / total
	avg2 := ((nC+1)*central2 + nL*local2) / total
	if avg2 < avg1 {
		return Ship
	}
	return RunLocal
}

// ForLoop implements LoopLocal.
func (m MinAverage) ForLoop() Strategy { return &minAverageLoop{MinAverage: m} }

// minAverageLoop is MinAverage with one event loop's P_f memo.
type minAverageLoop struct {
	MinAverage
	memo model.RaceMemo
}

func (l *minAverageLoop) Decide(st State) Decision { return l.decide(&l.memo, st) }

// Stats returns the memo's lookup counts.
func (l *minAverageLoop) Stats() model.MemoStats { return l.memo.Stats() }
