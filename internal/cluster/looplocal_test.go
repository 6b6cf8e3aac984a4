package cluster

import (
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/model"
	"hybriddb/internal/routing"
)

// stateRecorder routes as the wrapped strategy does and keeps every State it
// was asked about.
type stateRecorder struct {
	routing.Strategy
	states *[]routing.State
}

func (r stateRecorder) Decide(st routing.State) routing.Decision {
	*r.states = append(*r.states, st)
	return r.Strategy.Decide(st)
}

// TestSiteTakesLoopLocalInstance checks the live path's use of
// routing.LoopLocal: a site started with min-average/nis holds its own
// loop-confined instance (two sites started with one value do not share it),
// and that instance routes a State sequence recorded from a simulated run of
// the same configuration exactly as the plain value does.
func TestSiteTakesLoopLocalInstance(t *testing.T) {
	cfg := smokeConfig(2)
	plain := routing.MinAverage{Params: cfg.ModelParams(), Estimator: routing.FromInSystem}

	var states []routing.State
	simCfg := cfg
	simCfg.Duration = 20
	e, err := hybrid.New(simCfg, stateRecorder{plain, &states})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(states) < 100 {
		t.Fatalf("recorded only %d decisions", len(states))
	}

	var sites [2]*Site
	for i := range sites {
		// Nothing listens on the central address: the uplink keeps
		// redialling in the background, which routing does not need.
		s, err := StartSite(cfg, i, "127.0.0.1:1", "127.0.0.1:0", plain)
		if err != nil {
			t.Fatalf("StartSite(%d): %v", i, err)
		}
		defer s.Close()
		sites[i] = s
	}
	stats := func(s *Site) model.MemoStats {
		t.Helper()
		m, ok := s.strategy.(interface{ Stats() model.MemoStats })
		if !ok {
			t.Fatalf("site %d routes with %T, not a loop-local instance", s.idx, s.strategy)
		}
		return m.Stats()
	}
	for _, st := range states {
		if got, want := sites[0].strategy.Decide(st), plain.Decide(st); got != want {
			t.Fatalf("site decided %v, plain value %v on %+v", got, want, st)
		}
	}
	if ms := stats(sites[0]); ms.Hits == 0 {
		t.Errorf("site 0 never hit its memo over %d decisions: %+v", len(states), ms)
	}
	if ms := stats(sites[1]); ms.Hits+ms.Misses != 0 {
		t.Errorf("site 1 shares site 0's instance: %+v", ms)
	}
	if sites[0].strategy.Name() != plain.Name() {
		t.Errorf("site strategy is named %q, want %q", sites[0].strategy.Name(), plain.Name())
	}
}
