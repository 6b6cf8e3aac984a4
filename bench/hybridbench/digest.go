package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"hybriddb/internal/hybrid"
)

// A digest pins the simulated statistics of one (workload, seed, length).
// The simulator is deterministic, so any difference means a change altered
// the model — what it computes — and not merely how fast it computes it.
// Floats are stored as hex so the comparison is bit for bit.
type digest struct {
	MeanRT                string `json:"mean_rt"`
	ShipFraction          string `json:"ship_fraction"`
	Generated             uint64 `json:"generated"`
	Completed             uint64 `json:"completed"`
	AbortsDeadlockLocal   uint64 `json:"aborts_deadlock_local"`
	AbortsDeadlockCentral uint64 `json:"aborts_deadlock_central"`
	AbortsLocalSeized     uint64 `json:"aborts_local_seized"`
	AbortsCentralNACK     uint64 `json:"aborts_central_nack"`
	AbortsCentralInval    uint64 `json:"aborts_central_inval"`
	MessagesSent          uint64 `json:"messages_sent"`
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func digestOf(r hybrid.Result) digest {
	return digest{
		MeanRT:                hexFloat(r.MeanRT),
		ShipFraction:          hexFloat(r.ShipFraction),
		Generated:             r.Generated,
		Completed:             r.Completed,
		AbortsDeadlockLocal:   r.AbortsDeadlockLocal,
		AbortsDeadlockCentral: r.AbortsDeadlockCentral,
		AbortsLocalSeized:     r.AbortsLocalSeized,
		AbortsCentralNACK:     r.AbortsCentralNACK,
		AbortsCentralInval:    r.AbortsCentralInval,
		MessagesSent:          r.MessagesSent,
	}
}

// digestKey names a pinned run. The simulated duration stands for the
// requested length, so traced (quarter-length) and quick runs pin their own
// entries.
func digestKey(workload string, seed uint64, simSeconds float64) string {
	return fmt.Sprintf("%s/seed=%d/sim=%g", workload, seed, simSeconds)
}

type digestFile map[string]digest

//go:embed testdata/digests.json
var embeddedDigests []byte

// loadDigests reads the pinned digests: the embedded file, or the file at
// path when one is given (-digests).
func loadDigests(path string) (digestFile, error) {
	raw := embeddedDigests
	if path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("read digests: %w", err)
		}
		raw = b
	}
	var d digestFile
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parse digests: %w", err)
	}
	if d == nil {
		d = digestFile{}
	}
	return d, nil
}

// writeDigests stores the file; encoding/json writes map keys sorted, so
// diffs stay readable.
func writeDigests(path string, d digestFile) error { return writeJSON(path, d) }
