package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hybriddb/internal/hybrid"
)

// quickOptions keeps test sweeps small and fast.
func quickOptions() Options {
	base := hybrid.DefaultConfig()
	base.Warmup = 30
	base.Duration = 90
	return Options{Base: base, RatesPerSite: []float64{1.0, 2.5}}
}

// figure runs the Figures entry with the given ID.
func figure(t *testing.T, id string, opt Options) Figure {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("no figure %s in the table", id)
	}
	fig, err := e.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

func TestDefaultRatesSorted(t *testing.T) {
	rates := DefaultRates()
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatalf("rates not increasing: %v", rates)
		}
	}
}

func TestFigure41ShapesAndLayout(t *testing.T) {
	fig := figure(t, "4.1", quickOptions())
	if fig.ID != "4.1" {
		t.Errorf("ID = %q", fig.ID)
	}
	if len(fig.Curves) != 3 {
		t.Fatalf("curves = %d, want 3", len(fig.Curves))
	}
	for _, c := range fig.Curves {
		if len(c.Points) != 2 {
			t.Fatalf("curve %s has %d points", c.Label, len(c.Points))
		}
		for _, p := range c.Points {
			if p.Y <= 0 || math.IsNaN(p.Y) {
				t.Errorf("curve %s point %v has bad Y %v", c.Label, p.TotalRate, p.Y)
			}
		}
	}
	// At 25 tps the baseline must be worse than the best dynamic strategy.
	none := fig.Curves[0].Points[1].Y
	best := fig.Curves[2].Points[1].Y
	if best >= none {
		t.Errorf("best dynamic (%v) not better than none (%v) at 25 tps", best, none)
	}
}

func TestFigure42CurveSet(t *testing.T) {
	fig := figure(t, "4.2", quickOptions())
	want := []string{
		"measured-rt", "queue-length",
		"min-incoming/ql", "min-incoming/nis",
		"min-average/ql", "min-average/nis",
	}
	if len(fig.Curves) != len(want) {
		t.Fatalf("curves = %d, want %d", len(fig.Curves), len(want))
	}
	for i, c := range fig.Curves {
		if c.Label != want[i] {
			t.Errorf("curve %d = %q, want %q", i, c.Label, want[i])
		}
	}
}

func TestFigure43ShipFractionsInRange(t *testing.T) {
	fig := figure(t, "4.3", quickOptions())
	for _, c := range fig.Curves {
		for _, p := range c.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Errorf("curve %s ship fraction %v out of [0,1]", c.Label, p.Y)
			}
		}
	}
}

func TestFigure45UsesLongDelay(t *testing.T) {
	fig := figure(t, "4.5", quickOptions())
	// Class B transactions always traverse the network, so with D=0.5
	// even the low-load mean RT must exceed the 4-hop floor contribution:
	// 25% of transactions pay >= 2.0s, so the mean is >= 0.5s and well
	// above the D=0.2 equivalent.
	short := figure(t, "4.1", quickOptions())
	if fig.Curves[0].Points[0].Y <= short.Curves[0].Points[0].Y {
		t.Errorf("D=0.5 low-load RT (%v) not above D=0.2 (%v)",
			fig.Curves[0].Points[0].Y, short.Curves[0].Points[0].Y)
	}
}

func TestAllRunsEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set in -short mode")
	}
	opt := quickOptions()
	opt.RatesPerSite = []float64{1.5}
	wantIDs := []string{"4.1", "4.2", "4.3", "4.4", "4.5", "4.6", "4.7"}
	if len(Figures) != len(wantIDs) {
		t.Fatalf("figures = %d, want %d", len(Figures), len(wantIDs))
	}
	for i, e := range Figures {
		fig, err := e.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if fig.ID != wantIDs[i] {
			t.Errorf("figure %d = %s, want %s", i, fig.ID, wantIDs[i])
		}
		if len(fig.Curves) != len(e.Strategies) {
			t.Errorf("figure %s: %d curves for %d strategies", fig.ID, len(fig.Curves), len(e.Strategies))
		}
	}
}

func TestWriteTable(t *testing.T) {
	fig := Figure{
		ID: "9.9", Title: "test", XLabel: "tps", YLabel: "rt",
		Curves: []Curve{
			{Label: "a", Points: []Point{{TotalRate: 5, Y: 0.5}, {TotalRate: 10, Y: math.Inf(1)}}},
			{Label: "b", Points: []Point{{TotalRate: 5, Y: 123.4}, {TotalRate: 10, Y: 1}}},
		},
	}
	var buf bytes.Buffer
	if err := fig.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 9.9", "tps", "a", "b", "0.500", "inf", "123"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	opt := quickOptions()
	opt.RatesPerSite = []float64{1.0}
	fig := figure(t, "4.1", opt)
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header plus one line per curve point.
	if len(lines) != 1+3 {
		t.Fatalf("CSV has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "figure,curve,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestMaxThroughputOrdering(t *testing.T) {
	opt := quickOptions()
	opt.RatesPerSite = []float64{1.0, 2.0, 2.8, 3.2}
	sweep := Experiment{CommDelay: 0.2, Metric: meanRT, Strategies: []string{"none", "best"}}
	fig, err := sweep.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := MaxThroughput(fig, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].MaxTPS <= rows[0].MaxTPS {
		t.Errorf("best dynamic max tps (%v) not above none (%v)",
			rows[1].MaxTPS, rows[0].MaxTPS)
	}
}

func TestMaxThroughputRejectsBadCutoff(t *testing.T) {
	if _, err := MaxThroughput(Figure{}, 0); err == nil {
		t.Fatal("zero cutoff accepted")
	}
}

// TestStandardMakersBuildable checks every strategy spec in the experiment
// table parses and builds — a typo in the table must fail here, not halfway
// through a full-length sweep.
func TestStandardMakersBuildable(t *testing.T) {
	cfg := hybrid.DefaultConfig()
	for _, e := range append(Figures, Supportable) {
		makers, err := parseSpecs(e.Strategies...)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		for _, mk := range makers {
			if s, err := mk.Make(cfg); err != nil || s == nil {
				t.Errorf("%s: %s: strategy %v, error %v", e.ID, mk.Label, s, err)
			}
		}
	}
}

func TestAblationWriteMix(t *testing.T) {
	base := hybrid.DefaultConfig()
	base.Warmup, base.Duration = 20, 60
	base.ArrivalRatePerSite = 2.0
	rows, err := AblationWriteMix(base, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].BestAborts != 0 {
		t.Errorf("read-only ablation has %d aborts", rows[0].BestAborts)
	}
	if rows[1].BestAborts == 0 {
		t.Errorf("write-heavy ablation has no aborts")
	}
}

// TestAblationErrorNamesPoint checks that a failing ablation point is named
// in the error, not just its strategy and rate, which every point shares.
func TestAblationErrorNamesPoint(t *testing.T) {
	base := hybrid.DefaultConfig()
	base.Warmup, base.Duration = 5, 10
	_, err := AblationWriteMix(base, []float64{0.25, math.NaN()})
	if err == nil || !strings.Contains(err.Error(), "none at PWrite=NaN rep 0") {
		t.Fatalf("err = %v, want it to name the PWrite=NaN point", err)
	}
}

func TestAblationIOTimeDefaults(t *testing.T) {
	base := hybrid.DefaultConfig()
	base.Warmup, base.Duration = 20, 50
	base.ArrivalRatePerSite = 1.0
	rows, err := AblationIOTime(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 defaults", len(rows))
	}
}

func TestAblationFeedback(t *testing.T) {
	base := hybrid.DefaultConfig()
	base.Warmup, base.Duration = 20, 60
	base.ArrivalRatePerSite = 2.0
	rows, err := AblationFeedback(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 modes", len(rows))
	}
	for _, r := range rows {
		if r.BestRT <= 0 {
			t.Errorf("%s: RT %v", r.Label, r.BestRT)
		}
	}
}

func TestAblationBatching(t *testing.T) {
	base := hybrid.DefaultConfig()
	base.Warmup, base.Duration = 20, 80
	base.ArrivalRatePerSite = 2.0
	base.UpdateProcInstr = 60_000
	rows, err := AblationBatching(base, []float64{0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Messages >= rows[0].Messages {
		t.Errorf("batching did not cut messages: %d -> %d", rows[0].Messages, rows[1].Messages)
	}
}

func TestWritePlot(t *testing.T) {
	fig := figure(t, "4.1", quickOptions())
	var buf bytes.Buffer
	if err := fig.WritePlot(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 4.1", "A = none", "C = min-average/nis"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
}
