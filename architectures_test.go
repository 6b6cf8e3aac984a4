package hybriddb_test

import (
	"testing"

	"hybriddb"
)

func TestPublicCompareArchitectures(t *testing.T) {
	cfg := smallConfig()
	cfg.ArrivalRatePerSite = 0.5
	cmp, err := hybriddb.CompareArchitectures(cfg, hybriddb.DefaultLockTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Centralized.MeanRT <= 0 || cmp.Distributed.MeanRT <= 0 || cmp.Hybrid.MeanRT <= 0 {
		t.Fatalf("missing results: %+v", cmp)
	}
}

func TestPublicLocalitySweep(t *testing.T) {
	cfg := smallConfig()
	cfg.Warmup, cfg.Duration = 15, 50
	cfg.ArrivalRatePerSite = 0.4
	points, err := hybriddb.LocalitySweep(cfg, []float64{0.6, 1.0}, hybriddb.DefaultLockTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].Distributed.RemoteCallsPerTxn != 0 {
		t.Errorf("full locality has %v remote calls", points[1].Distributed.RemoteCallsPerTxn)
	}
}
