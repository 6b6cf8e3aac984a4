package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/obsx/manifest"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

const goldenPath = "testdata/experiments.golden"

// goldenBase is the tiny configuration every pinned experiment runs at.
func goldenBase() hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Warmup, cfg.Duration = 10, 40
	cfg.Seed = 1
	return cfg
}

// TestGoldenExperiments pins every experiment this package runs — the seven
// figures (table and CSV), a replicated figure with its manifest labels and
// seeds, the max-throughput rows, the ablations, the batching sweep, the
// three sensitivity sweeps and the model validation — at a tiny
// configuration. Floats print with %v (CSV with %g), so the pin is
// bit-exact: a refactor of the sweep machinery must leave this file alone.
// An intentional change to what an experiment measures regenerates it with
// -update.
func TestGoldenExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := renderGolden(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, buf.Len())
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("experiment output diverged from %s (%d bytes, want %d).\n"+
			"If what an experiment measures changed intentionally, re-run with -update.",
			goldenPath, buf.Len(), len(want))
	}
}

func renderGolden(w io.Writer) error {
	opt := Options{Base: goldenBase(), RatesPerSite: []float64{1.5, 2.8}}
	for _, e := range Figures {
		f, err := e.Run(opt)
		if err != nil {
			return err
		}
		if err := f.WriteTable(w); err != nil {
			return err
		}
		if err := f.WriteCSV(w); err != nil {
			return err
		}
	}

	rep := opt
	rep.Replications = 2
	rep.Manifest = manifest.New("golden", "replicated")
	e, _ := Lookup("4.3")
	fig, err := e.Run(rep)
	if err != nil {
		return err
	}
	if err := fig.WriteCSV(w); err != nil {
		return err
	}
	for _, r := range rep.Manifest.Runs {
		fmt.Fprintf(w, "run %s seed %d rate %v delay %v\n", r.Label, r.Seed, r.Config.ArrivalRatePerSite, r.Config.CommDelay)
	}

	supportable, err := Supportable.Run(opt)
	if err != nil {
		return err
	}
	maxRows, err := MaxThroughput(supportable, 4.0)
	if err != nil {
		return err
	}
	writeRows(w, "max-throughput", maxRows)

	loaded := goldenBase()
	loaded.ArrivalRatePerSite = 2.5
	writeMix, err := AblationWriteMix(loaded, []float64{0.1, 0.5})
	if err != nil {
		return err
	}
	writeRows(w, "ablation write-mix", writeMix)
	ioTime, err := AblationIOTime(loaded, nil)
	if err != nil {
		return err
	}
	writeRows(w, "ablation io-time", ioTime)
	feedback, err := AblationFeedback(loaded)
	if err != nil {
		return err
	}
	writeRows(w, "ablation feedback", feedback)

	batched := goldenBase()
	batched.ArrivalRatePerSite = 2.0
	batched.UpdateProcInstr = 60_000
	batching, err := AblationBatching(batched, []float64{0, 0.5})
	if err != nil {
		return err
	}
	writeRows(w, "ablation batching", batching)

	sens := goldenBase()
	sens.ArrivalRatePerSite = 2.0
	sites, err := SensitivitySites(sens, []int{5, 10}, 20)
	if err != nil {
		return err
	}
	writeRows(w, "sensitivity sites", sites)
	mips, err := SensitivityMIPS(sens, []float64{5, 30})
	if err != nil {
		return err
	}
	writeRows(w, "sensitivity mips", mips)
	plocal, err := SensitivityPLocal(sens, []float64{0.6, 0.9})
	if err != nil {
		return err
	}
	writeRows(w, "sensitivity plocal", plocal)

	validation, err := ModelValidation(Options{Base: goldenBase(), RatesPerSite: []float64{0.5, 1.5, 4.0}}, 0.3)
	if err != nil {
		return err
	}
	if err := WriteValidation(w, validation); err != nil {
		return err
	}
	writeRows(w, "validation", validation)
	return nil
}

// writeRows prints one row per line with %+v, so every float is exact.
func writeRows[T any](w io.Writer, title string, rows []T) {
	fmt.Fprintf(w, "%s\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "%+v\n", r)
	}
}
