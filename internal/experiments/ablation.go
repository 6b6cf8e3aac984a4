package experiments

import (
	"fmt"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/runner"
)

// AblationRow is one configuration point of an ablation sweep: the same
// offered load run under the no-sharing baseline and the best dynamic
// strategy, reporting how the design choice under study moves the gap.
type AblationRow struct {
	Label       string
	BaselineRT  float64 // no load sharing
	BestRT      float64 // min-average/nis
	Improvement float64 // BaselineRT / BestRT
	BestShip    float64
	BestAborts  uint64
}

// vary derives n sweep points from base; set adjusts point i and names it.
func vary(base hybrid.Config, n int, set func(i int, cfg *hybrid.Config) string) []runner.Point {
	points := make([]runner.Point, n)
	for i := range points {
		points[i].Cfg = base
		points[i].Name = set(i, &points[i].Cfg)
	}
	return points
}

// ablate runs the no-sharing baseline and the contender spec at every point
// and reduces each pair to its response-time ratio.
func ablate(points []runner.Point, contender string) ([]AblationRow, error) {
	runs, err := once(points, "none", contender)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(points))
	for p, pt := range points {
		rb, rd := runs[0][p][0].Result, runs[1][p][0].Result
		rows[p] = AblationRow{
			Label:      pt.Name,
			BaselineRT: rb.MeanRT,
			BestRT:     rd.MeanRT,
			BestShip:   rd.ShipFraction,
			BestAborts: rd.TotalAborts(),
		}
		if rd.MeanRT > 0 {
			rows[p].Improvement = rb.MeanRT / rd.MeanRT
		}
	}
	return rows, nil
}

// AblationWriteMix sweeps the exclusive-lock probability. The paper's trace
// fixed this value; the sweep demonstrates that the policy ranking is not an
// artifact of our substituted default (DESIGN.md §5).
func AblationWriteMix(base hybrid.Config, mixes []float64) ([]AblationRow, error) {
	if len(mixes) == 0 {
		mixes = []float64{0, 0.1, 0.25, 0.5, 0.75}
	}
	return ablate(vary(base, len(mixes), func(i int, cfg *hybrid.Config) string {
		cfg.PWrite = mixes[i]
		return fmt.Sprintf("PWrite=%.2f", mixes[i])
	}), "min-average/nis")
}

// AblationIOTime sweeps the per-call I/O time around the substituted 25 ms
// default.
func AblationIOTime(base hybrid.Config, ioTimes []float64) ([]AblationRow, error) {
	if len(ioTimes) == 0 {
		ioTimes = []float64{0.010, 0.025, 0.050}
	}
	return ablate(vary(base, len(ioTimes), func(i int, cfg *hybrid.Config) string {
		cfg.IOTimePerCall = ioTimes[i]
		return fmt.Sprintf("IO=%.0fms", ioTimes[i]*1000)
	}), "min-average/nis")
}

// AblationFeedback compares the central-state feedback modes under the
// queue-length heuristic, quantifying the cost of delayed information
// (§4.2's ideal-case discussion).
func AblationFeedback(base hybrid.Config) ([]AblationRow, error) {
	modes := []hybrid.Feedback{
		hybrid.FeedbackAuthOnly,
		hybrid.FeedbackAllMessages,
		hybrid.FeedbackIdeal,
	}
	return ablate(vary(base, len(modes), func(i int, cfg *hybrid.Config) string {
		cfg.Feedback = modes[i]
		return "feedback=" + modes[i].String()
	}), "queue-length")
}

// BatchingRow is one point of the update-batching sweep.
type BatchingRow struct {
	Window       float64 // batch window, seconds (0 = unbatched)
	MeanRT       float64
	Messages     uint64
	NACKs        uint64
	UtilCentral  float64
	ShipFraction float64
}

// AblationBatching sweeps the asynchronous-update batch window (§2:
// batching "to reduce the overheads involved"), reporting the message
// savings against the NACK-rate cost of longer coherence windows. Run it
// with base.UpdateProcInstr > 0 to also see the central CPU relief.
func AblationBatching(base hybrid.Config, windows []float64) ([]BatchingRow, error) {
	if len(windows) == 0 {
		windows = []float64{0, 0.2, 0.5, 1.0}
	}
	runs, err := once(vary(base, len(windows), func(i int, cfg *hybrid.Config) string {
		cfg.UpdateBatchWindow = windows[i]
		return fmt.Sprintf("batch window %gs", windows[i])
	}), "min-average/nis")
	if err != nil {
		return nil, err
	}
	rows := make([]BatchingRow, len(windows))
	for i, cells := range runs[0] {
		r := cells[0].Result
		rows[i] = BatchingRow{
			Window:       windows[i],
			MeanRT:       r.MeanRT,
			Messages:     r.MessagesSent,
			NACKs:        r.AbortsCentralNACK,
			UtilCentral:  r.UtilCentral,
			ShipFraction: r.ShipFraction,
		}
	}
	return rows, nil
}
