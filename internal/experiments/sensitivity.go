package experiments

import (
	"fmt"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/runner"
)

// The paper's conclusion names the factors the tuned threshold depends on:
// "communications delay, MIPS at local and central site, fraction of local
// transactions, and number of local systems". These sweeps quantify that
// dependence — and the robustness of the model-based strategy to the same
// factors — beyond the two delay points of Figures 4.4 and 4.7.

// SensitivityRow is one configuration point of a sensitivity sweep: the best
// threshold found for the queue-length heuristic at that point, and how the
// tuning-free best dynamic strategy compares.
type SensitivityRow struct {
	Label         string
	BestTheta     float64 // argmin over the candidate thresholds
	BestThetaRT   float64 // mean RT at that threshold
	BestDynamicRT float64 // mean RT of min-average/nis, untuned
}

// candidateThetas spans the range the paper explores.
func candidateThetas() []float64 {
	return []float64{-0.3, -0.2, -0.1, 0, 0.1, 0.2}
}

// tune runs every candidate threshold and the untuned best dynamic strategy
// at every point, and reduces each point to its argmin over θ. The scan
// stays in candidate order, so ties resolve to the first candidate.
func tune(points []runner.Point) ([]SensitivityRow, error) {
	thetas := candidateThetas()
	specs := make([]string, 0, len(thetas)+1)
	for _, theta := range thetas {
		specs = append(specs, fmt.Sprintf("threshold:%v", theta))
	}
	runs, err := once(points, append(specs, "min-average/nis")...)
	if err != nil {
		return nil, err
	}
	rows := make([]SensitivityRow, len(points))
	for p, pt := range points {
		row := SensitivityRow{Label: pt.Name, BestThetaRT: -1}
		for i, theta := range thetas {
			if rt := runs[i][p][0].Result.MeanRT; row.BestThetaRT < 0 || rt < row.BestThetaRT {
				row.BestThetaRT = rt
				row.BestTheta = theta
			}
		}
		row.BestDynamicRT = runs[len(thetas)][p][0].Result.MeanRT
		rows[p] = row
	}
	return rows, nil
}

// SensitivitySites sweeps the number of local systems at a fixed total
// offered rate (so each configuration faces the same aggregate load and the
// central site sees an identical class B stream).
func SensitivitySites(base hybrid.Config, siteCounts []int, totalRate float64) ([]SensitivityRow, error) {
	if len(siteCounts) == 0 {
		siteCounts = []int{5, 10, 20}
	}
	if totalRate <= 0 {
		return nil, fmt.Errorf("experiments: total rate %v", totalRate)
	}
	return tune(vary(base, len(siteCounts), func(i int, cfg *hybrid.Config) string {
		cfg.Sites = siteCounts[i]
		cfg.ArrivalRatePerSite = totalRate / float64(siteCounts[i])
		return fmt.Sprintf("sites=%d", siteCounts[i])
	}))
}

// SensitivityMIPS sweeps the central processor speed.
func SensitivityMIPS(base hybrid.Config, centralMIPS []float64) ([]SensitivityRow, error) {
	if len(centralMIPS) == 0 {
		centralMIPS = []float64{5, 15, 30}
	}
	return tune(vary(base, len(centralMIPS), func(i int, cfg *hybrid.Config) string {
		cfg.CentralMIPS = centralMIPS[i]
		return fmt.Sprintf("centralMIPS=%g", centralMIPS[i])
	}))
}

// SensitivityPLocal sweeps the class A fraction.
func SensitivityPLocal(base hybrid.Config, fractions []float64) ([]SensitivityRow, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.5, 0.75, 0.9}
	}
	return tune(vary(base, len(fractions), func(i int, cfg *hybrid.Config) string {
		cfg.PLocal = fractions[i]
		return fmt.Sprintf("pLocal=%.2f", fractions[i])
	}))
}
