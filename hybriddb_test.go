package hybriddb_test

import (
	"fmt"
	"math"
	"testing"

	"hybriddb"
)

func smallConfig() hybriddb.Config {
	cfg := hybriddb.DefaultConfig()
	cfg.Warmup = 30
	cfg.Duration = 90
	return cfg
}

func TestPublicRun(t *testing.T) {
	cfg := smallConfig()
	res, err := hybriddb.Run(cfg, hybriddb.Best(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.MeanRT <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Strategy != "min-average/nis" {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

func TestPublicRunInvalidConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Sites = 0
	if _, err := hybriddb.Run(cfg, hybriddb.None()); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestStrategyConstructors(t *testing.T) {
	cfg := smallConfig()
	cfg.ArrivalRatePerSite = 2.5
	static, p, err := hybriddb.StaticOptimal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strategies := map[string]hybriddb.Strategy{
		"none":                         hybriddb.None(),
		fmt.Sprintf("static(%.3f)", p): static,
		"queue-length":                 hybriddb.QueueLengthHeuristic(),
		"min-average/nis":              hybriddb.Best(cfg),
	}
	for want, s := range strategies {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestStaticOptimalShipsMoreUnderLoad(t *testing.T) {
	low := smallConfig()
	low.ArrivalRatePerSite = 0.3
	_, pLow, err := hybriddb.StaticOptimal(low)
	if err != nil {
		t.Fatal(err)
	}
	high := smallConfig()
	high.ArrivalRatePerSite = 2.5
	_, pHigh, err := hybriddb.StaticOptimal(high)
	if err != nil {
		t.Fatal(err)
	}
	if pHigh <= pLow {
		t.Errorf("optimal pShip: low-load %v, high-load %v", pLow, pHigh)
	}
}

func TestAnalyzeMatchesSimulationAtLowLoad(t *testing.T) {
	cfg := smallConfig()
	cfg.ArrivalRatePerSite = 0.5
	cfg.Warmup, cfg.Duration = 100, 400

	m, err := hybriddb.Analyze(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := hybriddb.Run(cfg, hybriddb.None())
	if err != nil {
		t.Fatal(err)
	}
	// The analytical model should predict the low-load simulation within
	// ~15% — the paper's validation regime.
	if rel := math.Abs(m.RAvg-sim.MeanRT) / sim.MeanRT; rel > 0.15 {
		t.Errorf("model RAvg %v vs simulated %v (rel err %.2f)", m.RAvg, sim.MeanRT, rel)
	}
}

func TestOptimalShipFractionExposed(t *testing.T) {
	cfg := smallConfig()
	cfg.ArrivalRatePerSite = 2.5
	p, res, err := hybriddb.OptimalShipFraction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 {
		t.Fatalf("pShip = %v", p)
	}
	if res.Saturated {
		t.Error("optimal solution saturated")
	}
}

func TestPublicAdaptiveStatic(t *testing.T) {
	cfg := smallConfig()
	s, err := hybriddb.AdaptiveStatic(cfg, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "adaptive-static" {
		t.Errorf("name = %q", s.Name())
	}
	res, err := hybriddb.Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
}
