package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/model"
	"hybriddb/internal/routing"
	"hybriddb/internal/runner"
)

// ValidationStatus classifies one validation row: whether the model↔sim
// comparison at that operating point is meaningful. The named sentinel keeps
// saturation explicit — consumers (the enforced tolerance gate in
// internal/simtest, the printed table) branch on Status rather than testing
// RelErr against ±Inf or NaN.
type ValidationStatus uint8

// Validation row statuses.
const (
	// ValidationOK means both model and simulation produced finite,
	// positive response times; RelErr is meaningful.
	ValidationOK ValidationStatus = iota + 1
	// ValidationModelSaturated means the fixed-point solver reported
	// saturation (a utilization reached 1) or a non-finite response time;
	// there is no finite prediction to compare.
	ValidationModelSaturated
	// ValidationSimDegenerate means the simulation produced no usable mean
	// response time (zero, negative, or NaN — an empty or saturated
	// measurement window).
	ValidationSimDegenerate
)

// String names the status for tables and failure messages.
func (s ValidationStatus) String() string {
	switch s {
	case ValidationOK:
		return "ok"
	case ValidationModelSaturated:
		return "model-saturated"
	case ValidationSimDegenerate:
		return "sim-degenerate"
	default:
		return fmt.Sprintf("ValidationStatus(%d)", uint8(s))
	}
}

// ValidationRow compares the analytical model's prediction with the
// simulation at one operating point — the methodology check behind §3.1
// ("simulation estimates are shown to support this methodology").
type ValidationRow struct {
	RatePerSite float64
	PShip       float64
	ModelRT     float64 // model RAvg
	SimRT       float64 // simulated mean RT
	// RelErr is |model−sim|/sim. It is only meaningful when Status ==
	// ValidationOK; on any other status it is NaN, never ±Inf, so an
	// unguarded comparison cannot silently pass or fail on a saturated row.
	RelErr     float64
	Status     ValidationStatus
	ModelUtilL float64
	SimUtilL   float64
	ModelUtilC float64
	SimUtilC   float64
}

// ModelValidation runs the static policy at the given ship probability
// across the sweep, solving the analytical model at each point and
// simulating the same point, and reports the prediction errors. The model is
// expected to track the simulation closely at low-to-moderate loads and
// degrade near saturation, where its M/M/1-style expansions are crudest.
func ModelValidation(opt Options, pShip float64) ([]ValidationRow, error) {
	if pShip < 0 || pShip > 1 {
		return nil, fmt.Errorf("experiments: pShip %v out of [0,1]", pShip)
	}
	// The simulations dominate the cost and are independent across rates, so
	// they fan across the worker pool; the analytical solves are cheap and
	// stay serial.
	points := opt.points()
	static := runner.Maker{Label: "validation", Make: func(cfg hybrid.Config) (routing.Strategy, error) {
		return routing.NewStatic(pShip, cfg.Seed^0x1234abcd), nil
	}}
	runs, err := runner.Sweep(points, []runner.Maker{static}, 1, runner.Options{Parallelism: opt.Parallelism})
	if err != nil {
		return nil, err
	}

	rows := make([]ValidationRow, 0, len(points))
	for i, pt := range points {
		cfg := pt.Cfg
		sol, err := model.Solve(cfg.ModelInput(pShip))
		if err != nil {
			return nil, err
		}
		sim := runs[0][i][0].Result

		row := ValidationRow{
			RatePerSite: cfg.ArrivalRatePerSite,
			PShip:       pShip,
			ModelRT:     sol.RAvg,
			SimRT:       sim.MeanRT,
			ModelUtilL:  sol.UtilLocal,
			SimUtilL:    sim.UtilLocalMean,
			ModelUtilC:  sol.UtilCentral,
			SimUtilC:    sim.UtilCentral,
		}
		switch {
		case sol.Saturated || math.IsInf(sol.RAvg, 0) || math.IsNaN(sol.RAvg):
			row.Status = ValidationModelSaturated
			row.RelErr = math.NaN()
		case sim.MeanRT <= 0 || math.IsNaN(sim.MeanRT):
			row.Status = ValidationSimDegenerate
			row.RelErr = math.NaN()
		default:
			row.Status = ValidationOK
			row.RelErr = math.Abs(sol.RAvg-sim.MeanRT) / sim.MeanRT
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteValidation renders the model-accuracy table.
func WriteValidation(w io.Writer, rows []ValidationRow) error {
	fmt.Fprintln(w, "Analytical model vs simulation (static policy)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tps/site\tp_ship\tmodel RT\tsim RT\trel err\tutil L (m/s)\tutil C (m/s)")
	for _, r := range rows {
		err := r.Status.String()
		if r.Status == ValidationOK {
			err = fmt.Sprintf("%.1f%%", 100*r.RelErr)
		}
		fmt.Fprintf(tw, "%.2f\t%.2f\t%.3f\t%.3f\t%s\t%.2f/%.2f\t%.2f/%.2f\n",
			r.RatePerSite, r.PShip, r.ModelRT, r.SimRT, err,
			r.ModelUtilL, r.SimUtilL, r.ModelUtilC, r.SimUtilC)
	}
	return tw.Flush()
}
