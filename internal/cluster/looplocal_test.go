package cluster

import (
	"testing"

	"hybriddb/internal/model"
	"hybriddb/internal/routing"
)

// TestSiteTakesLoopLocalInstance checks the live path's use of
// routing.LoopLocal: a site started with min-average/nis routes with a
// loop-confined instance taken by its node (hybrid.NewSiteNode, the one place
// besides the engine's run set-up that asks for one), and two sites started
// with one value do not share it. That an instance decides exactly as the
// plain value does is routing's TestLoopLocalDecidesAsPlainValue.
func TestSiteTakesLoopLocalInstance(t *testing.T) {
	cfg := smokeConfig(2)
	plain := routing.MinAverage{Params: cfg.ModelParams(), Estimator: routing.FromInSystem}

	var got [2]routing.Strategy
	for i := range got {
		// Nothing listens on the central address: the uplink keeps
		// redialling in the background, which routing does not need.
		s, err := StartSite(cfg, i, "127.0.0.1:1", "127.0.0.1:0", plain)
		if err != nil {
			t.Fatalf("StartSite(%d): %v", i, err)
		}
		defer s.Close()
		got[i] = s.node.Strategy()
		if _, ok := got[i].(interface{ Stats() model.MemoStats }); !ok {
			t.Fatalf("site %d routes with %T, not a loop-local instance", i, got[i])
		}
		if got[i].Name() != plain.Name() {
			t.Errorf("site %d strategy is named %q, want %q", i, got[i].Name(), plain.Name())
		}
	}
	if got[0] == got[1] {
		t.Error("two sites started with one value share a loop-local instance")
	}
}
