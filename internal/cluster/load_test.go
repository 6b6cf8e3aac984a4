package cluster

import (
	"math"
	"testing"

	"hybriddb/internal/hybrid"
)

// TestRampPacesALinearlyRisingRate walks each site's pacer over a fake clock
// — the clock jumps straight to every arrival — for a run of 2 × Ramp: the
// ramp must hold about Rate·Ramp/2 arrivals (the integral of a rate rising
// linearly from zero), the second half about Rate·Ramp, and no site may be
// left without an arrival, which is what a stretched first gap used to do.
func TestRampPacesALinearlyRisingRate(t *testing.T) {
	const (
		rate, ramp = 20.0, 2.0
		sites      = 4
		seeds      = 5
	)
	for _, pacing := range []string{PacingPoisson, PacingUniform} {
		var inRamp, after float64
		for seed := uint64(1); seed <= seeds; seed++ {
			opt := LoadOptions{Rate: rate, Pacing: pacing, Ramp: ramp, Duration: 2 * ramp, Seed: seed}
			if err := opt.defaults(hybrid.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			for site := 0; site < sites; site++ {
				wait := opt.pacer(site)
				n := 0
				for now := wait(0); now < 2*ramp; now += wait(now) {
					n++
					if now < ramp {
						inRamp++
					} else {
						after++
					}
				}
				if n == 0 {
					t.Errorf("%s seed %d: site %d got no arrival in %.0f s", pacing, seed, site, 2*ramp)
				}
			}
		}
		streams := float64(sites * seeds)
		wantRamp, wantAfter := streams*rate*ramp/2, streams*rate*ramp
		tol := 4.0 // standard deviations of a Poisson count
		if pacing == PacingUniform {
			tol = 0 // a fixed schedule: off by at most one arrival per stream
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"inside the ramp", inRamp, wantRamp}, {"after the ramp", after, wantAfter}} {
			if slack := tol*math.Sqrt(c.want) + streams; math.Abs(c.got-c.want) > slack {
				t.Errorf("%s: %v arrivals %s, want %v ± %.0f", pacing, c.got, c.name, c.want, slack)
			}
		}
	}
}

func TestRampedGapIsIdentityOutsideARamp(t *testing.T) {
	for _, c := range []struct{ t, gap, ramp, want float64 }{
		{0, 0.25, 0, 0.25},    // no ramp
		{3, 0.25, 2, 0.25},    // past it
		{0, 1, 2, 2},          // sqrt(0 + 2·2·1)
		{1, 0.75, 2, 1},       // lands exactly on the ramp's end
		{1, 1.75, 2, 2},       // 0.75 of the gap crosses the ramp, 1.0 runs at full rate
		{1.5, 10, 2, 10.0625}, // 0.5 s of ramp is worth 0.4375 of gap
	} {
		if got := rampedGap(c.t, c.gap, c.ramp); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("rampedGap(%v, %v, %v) = %v, want %v", c.t, c.gap, c.ramp, got, c.want)
		}
	}
}
