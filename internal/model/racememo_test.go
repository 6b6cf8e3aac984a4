package model

import (
	"math"
	"math/rand"
	"testing"
)

// raceLossFullSum is the kernel as it stood before the early exit: all 400
// steps, the tail clamped inside the loop. It is the reference the early exit
// must reproduce bit for bit.
func raceLossFullSum(betaL, betaC, d float64) float64 {
	if betaL <= 0 {
		return 0
	}
	if betaC <= 0 {
		return math.Max(0, (betaL-d)/betaL)
	}
	const steps = 400
	h := betaC / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		y := (float64(i) + 0.5) * h
		density := 2 * (betaC - y) / (betaC * betaC)
		tail := (betaL - y - d) / betaL
		if tail < 0 {
			tail = 0
		} else if tail > 1 {
			tail = 1
		}
		sum += density * tail * h
	}
	return clampProb(sum)
}

// estimateFromStateReference is EstimateFromState as it stood before it was
// split into halves: one function, both integrals always evaluated.
func estimateFromStateReference(p Params, rhoLocal, rhoCentral float64, locksLocal, locksCentral int) StateEstimate {
	nl := float64(p.CallsPerTxn)
	part := p.PartitionSize()
	d := p.CommDelay
	incompat := p.pIncompatible()

	pLL := float64(locksLocal) / part * incompat
	pCC := float64(locksCentral) / float64(p.Lockspace) * incompat
	pLC := float64(locksCentral) / float64(p.Lockspace) * incompat
	pCL := float64(locksLocal) / part * incompat

	est := StateEstimate{RLocal: math.Inf(1), RCentral: math.Inf(1)}
	if rhoLocal < 1 {
		cpu := p.cpuCall(p.LocalMIPS) / (1 - rhoLocal)
		denom := 1 - nl*pLL/2
		if denom > 0 {
			beta1 := nl * (cpu + p.IOTimePerCall) / denom
			beta2 := nl * cpu / denom
			betaC := nl * (p.cpuCall(p.CentralMIPS)/(1-math.Min(rhoCentral, 0.999)) + p.IOTimePerCall)
			pf := raceLossFullSum(beta1, betaC, d)
			paL := clampProb(nl * pLC * pf)
			reruns := geometricReruns(paL)
			est.RLocal = p.cpuOverhead(p.LocalMIPS)/(1-rhoLocal) + p.SetupIOTime +
				beta1 + reruns*beta2
		}
	}
	if rhoCentral < 1 {
		cpu := p.cpuCall(p.CentralMIPS) / (1 - rhoCentral)
		denom := 1 - nl*pCC/2
		if denom > 0 {
			beta1 := nl * (cpu + p.IOTimePerCall) / denom
			beta2 := nl * cpu / denom
			betaL := nl * (p.cpuCall(p.LocalMIPS)/(1-math.Min(rhoLocal, 0.999)) + p.IOTimePerCall)
			pf := raceLossFullSum(betaL, beta1, d)
			paC := clampProb(nl * pCL * p.PWrite * (1 - pf))
			reruns := geometricReruns(paC)
			attempt1 := p.cpuOverhead(p.CentralMIPS)/(1-rhoCentral) + p.SetupIOTime +
				beta1 + 2*d
			attempt2 := beta2 + 2*d
			est.RCentral = 2*d + attempt1 + reruns*attempt2
		}
	}
	return est
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRaceLossEarlyExitMatchesFullSum checks the early exit against the full
// sum over a grid that covers every branch: no clamping at all, the tail
// reaching zero part-way, betaL <= d (zero from the first step), betaC <= 0
// (the closed form), and the degenerate magnitudes where a density is not
// finite and the exit must not be taken.
func TestRaceLossEarlyExitMatchesFullSum(t *testing.T) {
	betas := []float64{
		math.Inf(-1), -1, math.Copysign(0, -1), 0, 5e-324, 1e-200, 1e-162, 1e-160, 1e-9,
		0.001, 0.0137, 0.2, 0.2500000001, 0.375, 0.7, 1, 1.5, 3, 47.25, 1e6, 1e160,
		math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	delays := []float64{-0.1, 0, 1e-9, 0.0137, 0.2, 0.7, 5, math.Inf(1), math.NaN()}
	for _, betaL := range betas {
		for _, betaC := range betas {
			for _, d := range delays {
				got, want := raceLossProbability(betaL, betaC, d), raceLossFullSum(betaL, betaC, d)
				if !sameBits(got, want) {
					t.Errorf("raceLossProbability(%v, %v, %v) = %v (%#x), full sum %v (%#x)",
						betaL, betaC, d, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
	// A dense sweep around the operating range of the paper's system.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		betaL, betaC, d := 3*rng.Float64(), 3*rng.Float64(), 0.5*rng.Float64()
		if got, want := raceLossProbability(betaL, betaC, d), raceLossFullSum(betaL, betaC, d); !sameBits(got, want) {
			t.Fatalf("raceLossProbability(%v, %v, %v) = %v, full sum %v", betaL, betaC, d, got, want)
		}
	}
}

// randomState draws a utilization pair and lock counts, including the
// boundaries: saturated and over-saturated utilizations, zero and negative
// lock counts, and counts large enough to zero the contention denominator.
func randomState(rng *rand.Rand) (rhoL, rhoC float64, locksL, locksC int) {
	rho := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return 0.999
		case 2:
			return 1
		case 3:
			return 1 + rng.Float64()
		default:
			return rng.Float64()
		}
	}
	locks := func() int {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return -rng.Intn(50)
		case 2:
			return rng.Intn(5000)
		default:
			return rng.Intn(120)
		}
	}
	return rho(), rho(), locks(), locks()
}

// TestEstimateHalvesMatchReference checks that the split estimate — with the
// zero-exposure shortcut and the early exit, with and without a memo — equals
// the single-function original bit for bit.
func TestEstimateHalvesMatchReference(t *testing.T) {
	contended := paperParams()
	contended.PWrite = 0.5
	readOnly := paperParams()
	readOnly.PWrite = 0
	rng := rand.New(rand.NewSource(2))
	for _, p := range []Params{paperParams(), contended, readOnly} {
		var memo RaceMemo
		for i := 0; i < 20000; i++ {
			rhoL, rhoC, locksL, locksC := randomState(rng)
			want := estimateFromStateReference(p, rhoL, rhoC, locksL, locksC)
			got := EstimateFromState(p, rhoL, rhoC, locksL, locksC)
			memoized := StateEstimate{
				RLocal:   EstimateLocal(p, &memo, rhoL, rhoC, locksL, locksC),
				RCentral: EstimateCentral(p, &memo, rhoL, rhoC, locksL, locksC),
			}
			for _, g := range []StateEstimate{got, memoized} {
				if !sameBits(g.RLocal, want.RLocal) || !sameBits(g.RCentral, want.RCentral) {
					t.Fatalf("PWrite=%v state (%v, %v, %d, %d): got %+v, reference %+v",
						p.PWrite, rhoL, rhoC, locksL, locksC, g, want)
				}
			}
		}
		if s := memo.Stats(); p.PWrite > 0 && (s.Hits == 0 || s.Misses == 0) {
			t.Errorf("PWrite=%v: memo saw %d hits and %d misses; the comparison is vacuous", p.PWrite, s.Hits, s.Misses)
		}
	}
}

// TestRaceMemoExactThroughGrowthAndCap fills a memo past its capacity with
// distinct keys and checks every answer — first sight, repeat, after each
// doubling, and once the table has stopped accepting entries — against a
// direct evaluation.
func TestRaceMemoExactThroughGrowthAndCap(t *testing.T) {
	const d = 0.2
	var memo RaceMemo
	check := func(betaL, betaC float64) {
		t.Helper()
		if got, want := memo.lossProbability(betaL, betaC, d), raceLossProbability(betaL, betaC, d); !sameBits(got, want) {
			t.Fatalf("memo(%v, %v) = %v, direct %v (entries %d)", betaL, betaC, got, want, memo.Stats().Entries)
		}
	}
	const maxEntries = raceMemoMaxSlots / 2
	const keys = maxEntries + 5000
	key := func(i int) (float64, float64) { return 0.3 + float64(i%300)*1e-3, 0.1 + float64(i/300)*1e-3 }
	for i := 0; i < keys; i++ {
		check(key(i))
		check(key(i / 2)) // an earlier key: a hit unless it arrived after the cap
	}
	s := memo.Stats()
	if s.Entries != maxEntries {
		t.Errorf("entries = %d, want the cap %d", s.Entries, maxEntries)
	}
	if len(memo.slots) != raceMemoMaxSlots {
		t.Errorf("table has %d slots, want %d", len(memo.slots), raceMemoMaxSlots)
	}
	if s.Hits+s.Misses != 2*keys {
		t.Errorf("hits %d + misses %d != %d lookups", s.Hits, s.Misses, 2*keys)
	}
	if s.Misses < keys {
		t.Errorf("misses = %d, want at least one per distinct key (%d)", s.Misses, keys)
	}
	// Full table: stored keys still hit, unseen keys are computed and dropped.
	before := memo.Stats()
	check(key(0))
	check(9.75, 9.5)
	check(9.75, 9.5)
	after := memo.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses+2 || after.Entries != before.Entries {
		t.Errorf("at the cap: stats went %+v -> %+v, want +1 hit, +2 misses, no new entry", before, after)
	}
}

// TestRaceMemoBypasses pins the calls that never touch the table: a nil memo,
// the closed-form branches, and a delay other than the one the table holds.
func TestRaceMemoBypasses(t *testing.T) {
	var none *RaceMemo
	if got, want := none.lossProbability(1, 0.5, 0.2), raceLossProbability(1, 0.5, 0.2); !sameBits(got, want) {
		t.Errorf("nil memo = %v, want %v", got, want)
	}
	if s := none.Stats(); s != (MemoStats{}) || s.HitRate() != 0 {
		t.Errorf("nil memo stats = %+v", s)
	}
	var memo RaceMemo
	for _, args := range [][2]float64{{0, 1}, {-1, 1}, {1, 0}, {1, -2}} {
		if got, want := memo.lossProbability(args[0], args[1], 0.2), raceLossProbability(args[0], args[1], 0.2); !sameBits(got, want) {
			t.Errorf("memo(%v, %v) = %v, want %v", args[0], args[1], got, want)
		}
	}
	if s := memo.Stats(); s.Hits+s.Misses != 0 || memo.slots != nil {
		t.Errorf("closed-form calls reached the table: %+v", s)
	}
	memo.lossProbability(1, 0.5, 0.2)
	memo.lossProbability(1, 0.5, 0.2)
	if got, want := memo.lossProbability(1, 0.5, 0.7), raceLossProbability(1, 0.5, 0.7); !sameBits(got, want) {
		t.Errorf("second delay through a memo = %v, want %v", got, want)
	}
	if s := memo.Stats(); s != (MemoStats{Hits: 1, Misses: 1, Entries: 1}) || s.HitRate() != 0.5 {
		t.Errorf("stats = %+v, want one miss then one hit and the other delay uncounted", s)
	}
}

var pfSink float64

// BenchmarkRaceLoss prices the kernel at a typical operating point of the
// paper's system (the tail reaches zero after ~60% of the steps), directly
// and through a warm memo.
func BenchmarkRaceLoss(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pfSink = raceLossProbability(0.75, 0.9, 0.2)
		}
	})
	b.Run("memo", func(b *testing.B) {
		var memo RaceMemo
		for i := 0; i < b.N; i++ {
			pfSink = memo.lossProbability(0.75, 0.9, 0.2)
		}
	})
}
