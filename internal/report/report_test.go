package report

import (
	"bytes"
	"strings"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/replicate"
)

func sampleResult(name string, rt float64) hybrid.Result {
	return hybrid.Result{
		Strategy:          name,
		Window:            100,
		MeanRT:            rt,
		P95RT:             rt * 2,
		Throughput:        25,
		ShipFraction:      0.4,
		CompletedLocalA:   100,
		CompletedShippedA: 80,
		CompletedClassB:   60,
		MeanRTLocalA:      rt * 0.8,
		MeanRTShippedA:    rt * 1.1,
		MeanRTClassB:      rt * 1.1,
		UtilLocalMean:     0.5,
		UtilLocalMax:      0.6,
		UtilCentral:       0.4,
	}
}

func TestWriteResult(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResult(&buf, sampleResult("best", 1.0)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"best", "25.00 tps", "1.000 s", "ship fraction", "aborts"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func sampleSummary(name string, rt float64) replicate.Summary {
	return replicate.Summary{
		Strategy:     name,
		Replications: 5,
		MeanRT:       replicate.Estimate{Mean: rt, HalfWidth: 0.01},
		Throughput:   replicate.Estimate{Mean: 25, HalfWidth: 0.5},
	}
}

func TestWriteReplication(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReplication(&buf, sampleSummary("queue-length", 1.0)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "queue-length (5 replications)") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "±") {
		t.Errorf("confidence interval missing:\n%s", out)
	}
}
