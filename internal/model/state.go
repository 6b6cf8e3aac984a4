package model

import "math"

// StateEstimate is the response-time prediction the dynamic strategies make
// from an instantaneous system state (§3.2.1): the expected response time of
// a class A transaction run at the local site, and of a transaction run at
// the central site (including shipping delays).
type StateEstimate struct {
	RLocal   float64 // run at the home site
	RCentral float64 // shipped to / run at the central site
}

// UtilizationFromQueue estimates a processor's utilization from its observed
// CPU queue length q (including the job in service), with correction term a
// accounting for the candidate routing of the incoming transaction:
// ρ = (q+a)/(q+1+a), the M/M/1 inversion of q = ρ/(1−ρ) (§3.2.1a).
func UtilizationFromQueue(q int, a float64) float64 {
	if q < 0 {
		q = 0
	}
	return (float64(q) + a) / (float64(q) + 1 + a)
}

// UtilizationFromCount estimates utilization from the number of transactions
// n at a system (§3.2.1b): ρ = α·(n+a), where α is the fraction of its
// response time a transaction spends using the CPU, computed from the
// no-contention response time at the given speed, and a is the routing
// correction term.
func (p Params) UtilizationFromCount(mips float64, n int, a float64) float64 {
	if n < 0 {
		n = 0
	}
	alpha := p.cpuFraction(mips)
	rho := alpha * (float64(n) + a)
	if rho > 0.999 {
		rho = 0.999
	}
	return rho
}

// cpuFraction returns the fraction of an uncontended first run spent at the
// CPU at the given speed.
func (p Params) cpuFraction(mips float64) float64 {
	demand := p.DemandFirstRun(mips)
	r0 := demand + p.SetupIOTime + float64(p.CallsPerTxn)*p.IOTimePerCall
	if r0 <= 0 {
		return 1
	}
	return demand / r0
}

// EstimateFromState evaluates the §3.1 response-time equations with
// utilizations supplied by the caller (from queue lengths or transaction
// counts) and contention probabilities estimated from observed lock counts,
// exactly as §3.2.1 prescribes ("the probabilities of contention are
// estimated from the number of locks held, e.g. P = n_lock/lockspace").
//
// locksLocal is the number of locks held at the arrival site, locksCentral
// at the central site. Saturated estimates return +Inf components. The two
// components are independent: EstimateLocal and EstimateCentral compute one
// each, for a caller that needs only one or has a RaceMemo.
func EstimateFromState(p Params, rhoLocal, rhoCentral float64, locksLocal, locksCentral int) StateEstimate {
	return StateEstimate{
		RLocal:   EstimateLocal(p, nil, rhoLocal, rhoCentral, locksLocal, locksCentral),
		RCentral: EstimateCentral(p, nil, rhoLocal, rhoCentral, locksLocal, locksCentral),
	}
}

// EstimateLocal is the RLocal half of EstimateFromState: the expected
// response time of a class A transaction run at its home site. memo may be
// nil.
func EstimateLocal(p Params, memo *RaceMemo, rhoLocal, rhoCentral float64, locksLocal, locksCentral int) float64 {
	if !(rhoLocal < 1) {
		return math.Inf(1)
	}
	nl := float64(p.CallsPerTxn)
	incompat := p.pIncompatible()
	// Per-request contention probability from the observed lock count; the
	// cross-site exposure pLC projects the central locks onto this
	// partition uniformly.
	pLL := float64(locksLocal) / p.PartitionSize() * incompat
	pLC := float64(locksCentral) / float64(p.Lockspace) * incompat

	cpu := p.cpuCall(p.LocalMIPS) / (1 - rhoLocal)
	// Closed form of beta = nl*(cpu + io + pLL*beta/2): the denominator is
	// the paper's lock-contention expansion factor.
	denom := 1 - nl*pLL/2
	if !(denom > 0) {
		return math.Inf(1)
	}
	beta1 := nl * (cpu + p.IOTimePerCall) / denom
	beta2 := nl * cpu / denom
	// Abort: exposure of the held locks to central authentication seizures,
	// weighted by the race-loss probability P_f. With no exposure the
	// product is zero whatever P_f is, and the integral is skipped.
	exposure := nl * pLC
	pf := 0.0
	if exposure != 0 {
		betaC := nl * (p.cpuCall(p.CentralMIPS)/(1-math.Min(rhoCentral, 0.999)) + p.IOTimePerCall)
		pf = memo.lossProbability(beta1, betaC, p.CommDelay)
	}
	reruns := geometricReruns(clampProb(exposure * pf))
	return p.cpuOverhead(p.LocalMIPS)/(1-rhoLocal) + p.SetupIOTime +
		beta1 + reruns*beta2
}

// EstimateCentral is the RCentral half of EstimateFromState: the expected
// response time of a transaction shipped to (or run at) the central site,
// shipping delays included. memo may be nil.
func EstimateCentral(p Params, memo *RaceMemo, rhoLocal, rhoCentral float64, locksLocal, locksCentral int) float64 {
	if !(rhoCentral < 1) {
		return math.Inf(1)
	}
	nl := float64(p.CallsPerTxn)
	d := p.CommDelay
	incompat := p.pIncompatible()
	// The local locks are all within this partition (pCL).
	pCC := float64(locksCentral) / float64(p.Lockspace) * incompat
	pCL := float64(locksLocal) / p.PartitionSize() * incompat

	cpu := p.cpuCall(p.CentralMIPS) / (1 - rhoCentral)
	denom := 1 - nl*pCC/2
	if !(denom > 0) {
		return math.Inf(1)
	}
	beta1 := nl * (cpu + p.IOTimePerCall) / denom
	beta2 := nl * cpu / denom
	// Central aborts: NACKs and invalidations both stem from local holders
	// committing exclusively; estimated from the observed local lock count,
	// discounted by the race won by the central transaction. As above, no
	// exposure means no integral.
	exposure := nl * pCL * p.PWrite
	pf := 0.0
	if exposure != 0 {
		betaL := nl * (p.cpuCall(p.LocalMIPS)/(1-math.Min(rhoLocal, 0.999)) + p.IOTimePerCall)
		pf = memo.lossProbability(betaL, beta1, d)
	}
	reruns := geometricReruns(clampProb(exposure * (1 - pf)))
	attempt1 := p.cpuOverhead(p.CentralMIPS)/(1-rhoCentral) + p.SetupIOTime +
		beta1 + 2*d
	attempt2 := beta2 + 2*d
	return 2*d + attempt1 + reruns*attempt2
}
