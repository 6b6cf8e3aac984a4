// Package model implements the analytical performance model of §3.1 of the
// paper, used in three roles:
//
//  1. Solve — the steady-state fixed-point model that, given arrival rates
//     and a ship probability, predicts local/shipped/central response times,
//     utilizations, and abort probabilities.
//  2. OptimalShipFraction — the optimal static (probabilistic) load-sharing
//     policy: the p_ship minimizing the modeled average response time.
//  3. EstimateFromState — the instantaneous-state variant of §3.2.1 used by
//     the dynamic routing strategies, where utilizations come from observed
//     queue lengths or transaction counts and contention probabilities from
//     observed lock counts.
//
// The printed equations in the paper are partially garbled by OCR; this
// package reconstructs them keeping the stated structure: per-request
// collision probability = (lock-seconds held by the conflicting population)
// / (referenced lock region), response-time expansion factors 1/(1−ρ) for
// CPU and 1/(1−N_l·p/2) for lock waits, geometric re-run terms
// P_a/(1−P_a), and the residual-time approximation for the probability P_f
// that a local transaction outlives a central transaction's authentication.
// DESIGN.md §4 records the reconstruction decisions.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Params holds the workload-independent system parameters shared by every
// model entry point.
type Params struct {
	Sites         int     // number of local sites
	LocalMIPS     float64 // local processor speed
	CentralMIPS   float64 // central processor speed
	CommDelay     float64 // one-way network delay, seconds
	CallsPerTxn   int     // database calls (= lock requests) per transaction
	InstrPerCall  float64 // instructions per database call
	InstrOverhead float64 // message handling + initiation instructions per transaction
	IOTimePerCall float64 // I/O time per database call (first run only)
	SetupIOTime   float64 // initial I/O before any lock is held
	Lockspace     uint32  // total lock elements
	PWrite        float64 // probability a lock request is exclusive

	// Heterogeneous data access (Thomasian's treatment; DESIGN.md §16).
	// SkewTheta is the Zipf exponent of the lock-reference distribution in
	// [0, 1); 0 (the zero value) keeps the paper's uniform-access terms
	// bit-identical. CentralHotFraction and ColdFetchDelay mirror the
	// simulator's partial-replication knobs: under CentralHotFraction < 1
	// a central call misses the replicated hot fragment with probability
	// pCold and pays ColdFetchDelay. The zero value (fraction 0, delay 0)
	// is treated as full replication — a cold miss that costs nothing —
	// so Params literals predating these fields solve unchanged.
	SkewTheta          float64
	CentralHotFraction float64
	ColdFetchDelay     float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Sites <= 0:
		return fmt.Errorf("model: sites = %d", p.Sites)
	case p.LocalMIPS <= 0 || p.CentralMIPS <= 0:
		return fmt.Errorf("model: non-positive MIPS (%v, %v)", p.LocalMIPS, p.CentralMIPS)
	case p.CommDelay < 0:
		return fmt.Errorf("model: negative comm delay %v", p.CommDelay)
	case p.CallsPerTxn <= 0:
		return fmt.Errorf("model: calls per txn = %d", p.CallsPerTxn)
	case p.InstrPerCall < 0 || p.InstrOverhead < 0:
		return errors.New("model: negative pathlength")
	case p.IOTimePerCall < 0 || p.SetupIOTime < 0:
		return errors.New("model: negative I/O time")
	case p.Lockspace == 0:
		return errors.New("model: zero lockspace")
	case p.PWrite < 0 || p.PWrite > 1:
		return fmt.Errorf("model: PWrite = %v", p.PWrite)
	// Negated-range forms so NaN is rejected, not silently passed.
	case !(p.SkewTheta >= 0 && p.SkewTheta < 1):
		return fmt.Errorf("model: SkewTheta = %v out of [0,1)", p.SkewTheta)
	case !(p.CentralHotFraction >= 0 && p.CentralHotFraction <= 1):
		return fmt.Errorf("model: CentralHotFraction = %v out of [0,1]", p.CentralHotFraction)
	case !(p.ColdFetchDelay >= 0):
		return fmt.Errorf("model: ColdFetchDelay = %v", p.ColdFetchDelay)
	}
	return nil
}

// PartitionSize returns the per-site database size in lock elements.
func (p Params) PartitionSize() float64 { return float64(p.Lockspace) / float64(p.Sites) }

// cpuCall returns the no-queueing CPU time of one database call at the given
// speed.
func (p Params) cpuCall(mips float64) float64 { return p.InstrPerCall / (mips * 1e6) }

// cpuOverhead returns the no-queueing CPU time of per-transaction overhead.
func (p Params) cpuOverhead(mips float64) float64 { return p.InstrOverhead / (mips * 1e6) }

// DemandFirstRun returns the total CPU demand of a first execution.
func (p Params) DemandFirstRun(mips float64) float64 {
	return (p.InstrOverhead + float64(p.CallsPerTxn)*p.InstrPerCall) / (mips * 1e6)
}

// DemandRerun returns the total CPU demand of a re-execution (calls only;
// initiation and message handling are not repeated).
func (p Params) DemandRerun(mips float64) float64 {
	return float64(p.CallsPerTxn) * p.InstrPerCall / (mips * 1e6)
}

// pIncompatible is the probability that two independently drawn lock modes
// conflict (only share–share coexists).
func (p Params) pIncompatible() float64 {
	pr := 1 - p.PWrite
	return 1 - pr*pr
}

// Input is the full workload description for the steady-state model.
type Input struct {
	Params

	ArrivalRatePerSite float64 // λ, transactions per second per local site
	PLocal             float64 // class A fraction
	PShip              float64 // probability a class A transaction is shipped
}

// ValidateInput reports whether the input is usable.
func (in Input) ValidateInput() error {
	if err := in.Params.Validate(); err != nil {
		return err
	}
	switch {
	case in.ArrivalRatePerSite <= 0:
		return fmt.Errorf("model: arrival rate %v", in.ArrivalRatePerSite)
	case in.PLocal < 0 || in.PLocal > 1:
		return fmt.Errorf("model: PLocal = %v", in.PLocal)
	case in.PShip < 0 || in.PShip > 1:
		return fmt.Errorf("model: PShip = %v", in.PShip)
	}
	return nil
}

// Result is the steady-state model solution.
type Result struct {
	// Response times in seconds, measured from arrival at the origin to
	// completion notification at the origin.
	RLocal   float64 // class A run at the home site
	RCentral float64 // class B and shipped class A (assumed equal, §3.1)
	RAvg     float64 // workload-weighted average

	UtilLocal   float64 // local CPU utilization
	UtilCentral float64 // central CPU utilization

	PAbortLocal   float64 // abort probability per local attempt
	PAbortCentral float64 // abort probability per central attempt
	RerunsLocal   float64 // expected re-executions per local transaction
	RerunsCentral float64 // expected re-executions per central transaction

	Saturated  bool // a CPU utilization reached 1: response times are +Inf
	Converged  bool
	Iterations int
}

const (
	maxIterations = 5000
	tolerance     = 1e-10
	damping       = 0.5
)

// Solve runs the fixed-point iteration of §3.1. On saturation the response
// times are +Inf and Saturated is set.
func Solve(in Input) (Result, error) {
	if err := in.ValidateInput(); err != nil {
		return Result{}, err
	}
	// Heterogeneous-access terms (skew.go). At SkewTheta == 0 with full
	// replication these are exact identities — every factor is 1.0 and the
	// cold term +0.0 — so the uniform solution is reproduced bit for bit;
	// the cheap guard also skips the zeta summations entirely.
	het := uniformTerms()
	if in.Params.SkewTheta > 0 || in.Params.CentralHotFraction < 1 {
		het = hetTermsFor(in)
	}
	var (
		p    = in.Params
		nl   = float64(p.CallsPerTxn)
		part = p.PartitionSize()
		d    = p.CommDelay

		coldTerm = het.pCold * p.ColdFetchDelay // per-call first-run fetch delay

		// New-transaction rates.
		lamLocal   = in.ArrivalRatePerSite * in.PLocal * (1 - in.PShip)                      // per site
		lamCentral = float64(p.Sites) * in.ArrivalRatePerSite * (1 - in.PLocal*(1-in.PShip)) // total at central
	)

	// Iteration state with benign starting guesses.
	var (
		betaL1 = nl * (p.cpuCall(p.LocalMIPS) + p.IOTimePerCall)
		betaL2 = nl * p.cpuCall(p.LocalMIPS)
		betaC1 = nl * (p.cpuCall(p.CentralMIPS) + p.IOTimePerCall)
		betaC2 = nl * p.cpuCall(p.CentralMIPS)

		rerunsL, rerunsC float64
	)

	res := Result{}
	for iter := 1; iter <= maxIterations; iter++ {
		rhoL := lamLocal * (p.DemandFirstRun(p.LocalMIPS) + rerunsL*p.DemandRerun(p.LocalMIPS))
		rhoC := lamCentral * (p.DemandFirstRun(p.CentralMIPS) + rerunsC*p.DemandRerun(p.CentralMIPS))
		res.UtilLocal, res.UtilCentral = rhoL, rhoC
		if rhoL >= 1 || rhoC >= 1 {
			res.Saturated = true
			res.RLocal, res.RCentral, res.RAvg = math.Inf(1), math.Inf(1), math.Inf(1)
			res.Iterations = iter
			return res, nil
		}

		// Mean holding-phase durations across attempts.
		attemptsL := 1 + rerunsL
		attemptsC := 1 + rerunsC
		betaLbar := (betaL1 + rerunsL*betaL2) / attemptsL
		betaCbar := (betaC1 + rerunsC*betaC2) / attemptsC

		// Lock-seconds held per element region (Little's law: each
		// transaction accumulates N_l*beta/2 lock-seconds).
		lockSecLocal := lamLocal * attemptsL * nl * betaLbar / 2     // within one partition
		lockSecCentral := lamCentral * attemptsC * nl * betaCbar / 2 // over the whole lockspace

		// Authentication-phase locks held at a local site: every central
		// attempt places N_l locks on its touched partitions for the
		// 2D round-trip; spread over partitions this is the per-partition
		// placement rate below (shipped class A concentrates on its home
		// partition; class B spreads N_l/Sites per partition — both reduce
		// to the same per-partition total).
		authPlacement := in.ArrivalRatePerSite * (1 - in.PLocal*(1-in.PShip)) * attemptsC * nl // placements/s per partition
		lockSecAuth := authPlacement * 2 * d

		// Per-request collision probabilities (paper's P_xx, divided by
		// N_l: ours are per lock request, the paper's per transaction),
		// each scaled by its population pair's heterogeneity factor.
		pLL := lockSecLocal / part * p.pIncompatible() * het.fPart
		pLW := lockSecAuth / part * p.pIncompatible() * het.fCross // wait behind an authentication lock
		pCC := lockSecCentral / float64(p.Lockspace) * p.pIncompatible() * het.fCentral

		// Per-request wait times. A local holder is outlived for ~beta/2;
		// an authentication lock for ~D (residual of the 2D window).
		waitL := pLL*betaLbar/2 + pLW*d
		waitC := pCC * betaCbar / 2

		// Holding-phase durations (damped update).
		upd := func(old, new float64) float64 { return old + damping*(new-old) }
		// The cold-fetch delay extends only the first-execution holding
		// phase, mirroring the simulator's first-attempt-only fetch.
		nbL1 := nl * (p.cpuCall(p.LocalMIPS)/(1-rhoL) + p.IOTimePerCall + waitL)
		nbL2 := nl * (p.cpuCall(p.LocalMIPS)/(1-rhoL) + waitL)
		nbC1 := nl * (p.cpuCall(p.CentralMIPS)/(1-rhoC) + p.IOTimePerCall + waitC + coldTerm)
		nbC2 := nl * (p.cpuCall(p.CentralMIPS)/(1-rhoC) + waitC)

		// Abort probabilities.
		// Local: a central authentication seizes one of this transaction's
		// held locks (N_l*beta/2 lock-seconds exposed to authPlacement
		// placements over the partition) and the local transaction loses
		// the race (P_f: it would have finished after the authentication).
		pf := raceLossProbability(betaL1, betaC1, d)
		paL := authPlacement * nl * betaLbar / 2 / part * p.pIncompatible() * pf * het.fCross
		// Central NACK: an authenticated element has an in-flight
		// asynchronous update (window 2D per exclusive local commit).
		xCommitPlacement := lamLocal * nl * p.PWrite // exclusive commits/s per partition
		pNACK := 1 - math.Pow(1-math.Min(1, xCommitPlacement*2*d/part*het.fCross), nl)
		// Central invalidation: a local exclusive commit hits a lock the
		// central transaction holds (N_l*beta/2 lock-seconds over the
		// partition).
		pInval := xCommitPlacement * nl * betaCbar / 2 / part * het.fCross
		paC := clampProb(pNACK + pInval)
		paL = clampProb(paL)

		nrL := geometricReruns(paL)
		nrC := geometricReruns(paC)

		delta := math.Abs(nbL1-betaL1) + math.Abs(nbL2-betaL2) +
			math.Abs(nbC1-betaC1) + math.Abs(nbC2-betaC2) +
			math.Abs(nrL-rerunsL) + math.Abs(nrC-rerunsC)

		betaL1, betaL2 = upd(betaL1, nbL1), upd(betaL2, nbL2)
		betaC1, betaC2 = upd(betaC1, nbC1), upd(betaC2, nbC2)
		rerunsL, rerunsC = upd(rerunsL, nrL), upd(rerunsC, nrC)

		res.PAbortLocal, res.PAbortCentral = paL, paC
		res.RerunsLocal, res.RerunsCentral = rerunsL, rerunsC
		res.Iterations = iter

		if delta < tolerance {
			res.Converged = true
			break
		}
	}

	rhoL, rhoC := res.UtilLocal, res.UtilCentral
	p2 := in.Params
	res.RLocal = p2.cpuOverhead(p2.LocalMIPS)/(1-rhoL) + p2.SetupIOTime + betaL1 +
		res.RerunsLocal*betaL2
	// Central: one delay in, each attempt ends with a 2D authentication
	// round, one delay for the reply.
	attemptC1 := p2.cpuOverhead(p2.CentralMIPS)/(1-rhoC) + p2.SetupIOTime + betaC1 + 2*p2.CommDelay
	attemptC2 := betaC2 + 2*p2.CommDelay
	res.RCentral = 2*p2.CommDelay + attemptC1 + res.RerunsCentral*attemptC2

	wLocal := in.PLocal * (1 - in.PShip)
	res.RAvg = wLocal*res.RLocal + (1-wLocal)*res.RCentral
	return res, nil
}

// geometricReruns converts a per-attempt abort probability into the expected
// number of re-executions, Pa/(1-Pa), capped to keep iteration finite when
// Pa approaches 1.
func geometricReruns(pa float64) float64 {
	const maxReruns = 50
	if pa >= 1 {
		return maxReruns
	}
	r := pa / (1 - pa)
	if r > maxReruns {
		return maxReruns
	}
	return r
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// raceLossProbability returns P_f: the probability that a local transaction
// whose lock collides with a central transaction finishes after the central
// transaction's authentication reaches the local site, so the local
// transaction is the abort victim. Following §3.1: the local residual time X
// is Uniform(0, betaL); the central remaining time Y has density
// 2(betaC−y)/betaC² (collision probability proportional to locks held); the
// authentication arrives a further comm delay d after the central
// transaction finishes. P_f = P(X > Y + d), integrated numerically.
//
// The sum stops at the first step whose tail P(X > y+d) is not positive. The
// tail only falls as y grows (every operation in it rounds monotonically), so
// each later step would add density·0·h = +0 to a non-negative sum: stopping
// returns the bits of the full 400-step sum. That holds while every density
// is finite, which a betaC whose square neither underflows to zero nor
// overflows guarantees; outside that range (a density of ±Inf or NaN times
// zero is NaN) the sum runs to the end.
func raceLossProbability(betaL, betaC, d float64) float64 {
	if betaL <= 0 {
		return 0
	}
	if betaC <= 0 {
		// Central finishes instantly: only the delay matters.
		return math.Max(0, (betaL-d)/betaL)
	}
	const steps = 400
	h := betaC / steps
	sq := betaC * betaC
	finiteDensity := sq > 0 && sq <= math.MaxFloat64
	sum := 0.0
	for i := 0; i < steps; i++ {
		y := (float64(i) + 0.5) * h
		density := 2 * (betaC - y) / sq
		tail := (betaL - y - d) / betaL // P(X > y+d)
		if tail <= 0 {
			if finiteDensity {
				break
			}
			tail = 0
		} else if tail > 1 {
			tail = 1
		}
		sum += density * tail * h
	}
	return clampProb(sum)
}

// StaticResult is the outcome of the static optimization.
type StaticResult struct {
	PShip  float64 // optimal ship probability
	Result         // model solution at PShip
}

// OptimalShipFraction sweeps p_ship and returns the value minimizing the
// modeled average response time — the paper's optimal static (probabilistic)
// load-sharing policy. Saturated points are treated as +Inf. The coarse
// sweep uses the given step (e.g. 0.01) and is refined by golden-section
// search around the best coarse point.
func OptimalShipFraction(in Input, step float64) (StaticResult, error) {
	if step <= 0 || step > 0.5 {
		return StaticResult{}, fmt.Errorf("model: sweep step %v out of (0, 0.5]", step)
	}
	eval := func(ps float64) (float64, Result) {
		trial := in
		trial.PShip = ps
		r, err := Solve(trial)
		if err != nil {
			return math.Inf(1), r
		}
		if r.Saturated {
			return math.Inf(1), r
		}
		return r.RAvg, r
	}

	bestP, bestV := 0.0, math.Inf(1)
	for ps := 0.0; ps <= 1.0+1e-12; ps += step {
		if ps > 1 {
			ps = 1
		}
		if v, _ := eval(ps); v < bestV {
			bestV, bestP = v, ps
		}
	}
	if math.IsInf(bestV, 1) {
		// Overloaded everywhere: return the least-bad boundary solution.
		trial := in
		trial.PShip = bestP
		r, err := Solve(trial)
		if err != nil {
			return StaticResult{}, err
		}
		return StaticResult{PShip: bestP, Result: r}, nil
	}

	// Golden-section refinement on [bestP-step, bestP+step].
	lo := math.Max(0, bestP-step)
	hi := math.Min(1, bestP+step)
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, _ := eval(x1)
	f2, _ := eval(x2)
	for i := 0; i < 60 && b-a > 1e-6; i++ {
		if f1 <= f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1, _ = eval(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2, _ = eval(x2)
		}
	}
	p := (a + b) / 2
	v, r := eval(p)
	if v > bestV {
		p = bestP
		_, r = eval(bestP)
	}
	return StaticResult{PShip: p, Result: r}, nil
}
