// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the response-time-versus-throughput curves of Figures 4.1,
// 4.2, 4.4, 4.5 and 4.7, the shipped-fraction curves of Figures 4.3 and 4.6,
// plus a maximum-supportable-throughput table, ablation and sensitivity
// sweeps and the model validation. The figures are rows of one table,
// Figures; every experiment is a list of configuration points fed to
// runner.Sweep plus a reduction of its results.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/obsx/manifest"
	"hybriddb/internal/plot"
	"hybriddb/internal/runner"
	"hybriddb/internal/stats"
)

// Options controls a figure regeneration.
type Options struct {
	// Base is the configuration template. Each experiment sets CommDelay
	// where the paper does; ArrivalRatePerSite is set per sweep point.
	Base hybrid.Config
	// RatesPerSite is the sweep of per-site arrival rates. Nil selects
	// DefaultRates.
	RatesPerSite []float64
	// Replications is the number of independent replications per sweep
	// point. Replication 0 runs on Base.Seed itself (so 0 or 1 reproduces
	// the historical single-run sweeps bit for bit); replication r > 0 runs
	// on runner.DeriveSeed(Base.Seed, label, rateIndex, r). With more than
	// one replication every Point carries a sample standard deviation and a
	// 95% confidence half-width.
	Replications int
	// Parallelism bounds the worker pool fanning the (strategy × rate ×
	// replication) runs; 0 selects GOMAXPROCS. The value changes only
	// wall-clock time — sweep output is bit-identical at any parallelism.
	Parallelism int
	// Progress, when non-nil, receives a pool event after each run
	// completes (wall-clock completion order). Reporting never perturbs
	// results.
	Progress func(runner.ProgressEvent)
	// Manifest, when non-nil, accumulates every run of every sweep — label,
	// exact configuration, and full result — for a RUN_*.json artifact. Set
	// Base.CaptureHistograms to include histogram dumps in the results.
	Manifest *manifest.Manifest
}

// DefaultRates spans 5–34 tps total for the 10-site system, bracketing every
// knee in the paper's figures.
func DefaultRates() []float64 {
	return []float64{0.5, 1.0, 1.5, 2.0, 2.5, 2.8, 3.1, 3.4}
}

// points is Base at every swept rate, each named by its rate.
func (o Options) points() []runner.Point {
	rates := o.RatesPerSite
	if len(rates) == 0 {
		rates = DefaultRates()
	}
	return vary(o.Base, len(rates), func(i int, cfg *hybrid.Config) string {
		cfg.ArrivalRatePerSite = rates[i]
		return fmt.Sprintf("rate %v", rates[i])
	})
}

// Point is one sweep point of one curve. With a single replication Y is that
// run's measurement and the dispersion fields are zero; with n > 1
// replications Y is the mean across replications.
type Point struct {
	RatePerSite float64
	TotalRate   float64
	Y           float64 // mean of the metric across replications
	// StdDev is the sample standard deviation of the metric across
	// replications (0 with a single replication).
	StdDev float64
	// HalfWidth is the 95% Student-t confidence half-width on Y (0 with a
	// single replication).
	HalfWidth float64
	// Replications is the number of independent runs aggregated into Y.
	Replications int
	// Result is the first replication's full measurement (the run on the
	// base seed) — the auxiliary columns of WriteCSV read from it.
	Result hybrid.Result
	// Results holds every replication's full measurement, in replication
	// order; Results[0] == Result.
	Results []hybrid.Result
}

// Curve is one strategy's series across the sweep.
type Curve struct {
	Label  string
	Points []Point
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string // e.g. "4.2"
	Title  string
	XLabel string
	YLabel string
	Curves []Curve
}

// Experiment is one figure as data: the strategies (ParseStrategy specs)
// swept over the offered rate, the communications delay they run at, and the
// metric the figure reads from each run.
type Experiment struct {
	ID         string
	Title      string
	YLabel     string
	CommDelay  float64
	Strategies []string
	Metric     func(hybrid.Result) float64
}

func meanRT(r hybrid.Result) float64       { return r.MeanRT }
func shipFraction(r hybrid.Result) float64 { return r.ShipFraction }

const (
	rtAxis   = "mean response time (s)"
	shipAxis = "fraction shipped"
)

// Figures is the paper's evaluation in paper order. Figure 4.2's curve
// letters follow the paper: A measured-rt, B queue-length, C min-incoming/ql,
// D min-incoming/nis, E min-average/ql, F min-average/nis (the best dynamic
// strategy). Figures 4.4 and 4.7 tune the queue-length threshold, whose
// optimum the paper finds near -0.2 at D=0.2s and near -0.1/+0.1 at D=0.5s;
// Figure 4.6's static curve shows the paper's point of inflection.
var Figures = []Experiment{
	{
		ID: "4.1", Title: "Response time vs throughput: none / static / best dynamic (D=0.2s)",
		YLabel: rtAxis, CommDelay: 0.2, Metric: meanRT,
		Strategies: []string{"none", "static", "min-average/nis"},
	},
	{
		ID: "4.2", Title: "Response time vs throughput: dynamic schemes A-F (D=0.2s)",
		YLabel: rtAxis, CommDelay: 0.2, Metric: meanRT,
		Strategies: []string{"measured-rt", "queue-length", "min-incoming/ql", "min-incoming/nis", "min-average/ql", "min-average/nis"},
	},
	{
		ID: "4.3", Title: "Fraction of class A transactions shipped (D=0.2s)",
		YLabel: shipAxis, CommDelay: 0.2, Metric: shipFraction,
		Strategies: []string{"static", "measured-rt", "queue-length", "min-incoming/nis", "min-average/nis"},
	},
	{
		ID: "4.4", Title: "Tuning the queue-length threshold (D=0.2s)",
		YLabel: rtAxis, CommDelay: 0.2, Metric: meanRT,
		Strategies: []string{"threshold:0", "threshold:-0.1", "threshold:-0.2", "threshold:-0.3", "min-average/nis"},
	},
	{
		ID: "4.5", Title: "Response time vs throughput: none / static / best dynamic (D=0.5s)",
		YLabel: rtAxis, CommDelay: 0.5, Metric: meanRT,
		Strategies: []string{"none", "static", "min-average/nis"},
	},
	{
		ID: "4.6", Title: "Fraction of class A transactions shipped (D=0.5s)",
		YLabel: shipAxis, CommDelay: 0.5, Metric: shipFraction,
		Strategies: []string{"static", "measured-rt", "queue-length", "min-incoming/nis", "min-average/nis"},
	},
	{
		ID: "4.7", Title: "Tuning the queue-length threshold (D=0.5s)",
		YLabel: rtAxis, CommDelay: 0.5, Metric: meanRT,
		Strategies: []string{"threshold:0", "threshold:0.1", "threshold:0.2", "threshold:-0.1", "min-average/nis"},
	},
}

// Supportable is the sweep MaxThroughput reduces: every paper policy's mean
// response time at D=0.2s, the delay at which §4.2 reads the knees.
var Supportable = Experiment{
	ID: "max", Title: "Response time vs throughput: every policy (D=0.2s)",
	YLabel: rtAxis, CommDelay: 0.2, Metric: meanRT,
	Strategies: []string{
		"none", "static", "measured-rt", "queue-length", "threshold:-0.2",
		"min-incoming/ql", "min-incoming/nis", "min-average/ql", "min-average/nis",
	},
}

// Lookup finds the figure with the given ID in Figures.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Figures {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run sweeps the experiment's strategies over opt's rates at its delay and
// aggregates its metric per point across replications.
func (e Experiment) Run(opt Options) (Figure, error) {
	makers, err := parseSpecs(e.Strategies...)
	if err != nil {
		return Figure{}, err
	}
	opt.Base.CommDelay = e.CommDelay
	points := opt.points()
	runs, err := runner.Sweep(points, makers, opt.Replications, runner.Options{
		Parallelism: opt.Parallelism,
		Progress:    opt.Progress,
	})
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{ID: e.ID, Title: e.Title, XLabel: "total offered tps", YLabel: e.YLabel}
	for m, mk := range makers {
		curve := Curve{Label: mk.Label}
		for p, cells := range runs[m] {
			rate := points[p].Cfg.ArrivalRatePerSite
			pt := Point{RatePerSite: rate, TotalRate: rate * float64(opt.Base.Sites), Replications: len(cells)}
			var w stats.Welford
			for _, c := range cells {
				if opt.Manifest != nil {
					opt.Manifest.Add(c.Label, c.Cfg, c.Result)
				}
				pt.Results = append(pt.Results, c.Result)
				w.Add(e.Metric(c.Result))
			}
			// A single observation's Welford mean is the observation itself
			// and its dispersion is zero.
			pt.Result, pt.Y, pt.StdDev, pt.HalfWidth = pt.Results[0], w.Mean(), w.StdDev(), w.CI95()
			curve.Points = append(curve.Points, pt)
		}
		fig.Curves = append(fig.Curves, curve)
	}
	return fig, nil
}

// parseSpecs resolves ParseStrategy specifications to makers.
func parseSpecs(specs ...string) ([]runner.Maker, error) {
	makers := make([]runner.Maker, len(specs))
	for i, spec := range specs {
		mk, err := ParseStrategy(spec)
		if err != nil {
			return nil, err
		}
		makers[i] = mk
	}
	return makers, nil
}

// once runs every spec once at every point, on the points' own seeds.
func once(points []runner.Point, specs ...string) ([][][]runner.Cell, error) {
	makers, err := parseSpecs(specs...)
	if err != nil {
		return nil, err
	}
	return runner.Sweep(points, makers, 1, runner.Options{})
}

// WriteTable renders the figure as an aligned text table, one row per sweep
// rate and one column per curve.
func (f Figure) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure %s — %s\n", f.ID, f.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	cols := []string{f.XLabel}
	for _, c := range f.Curves {
		cols = append(cols, c.Label)
	}
	fmt.Fprintln(tw, strings.Join(cols, "\t"))
	if len(f.Curves) > 0 {
		for i := range f.Curves[0].Points {
			row := []string{fmt.Sprintf("%.1f", f.Curves[0].Points[i].TotalRate)}
			for _, c := range f.Curves {
				cell := formatY(c.Points[i].Y)
				if hw := c.Points[i].HalfWidth; hw > 0 && !math.IsInf(c.Points[i].Y, 0) {
					cell += fmt.Sprintf("±%s", formatY(hw))
				}
				row = append(row, cell)
			}
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func formatY(y float64) string {
	switch {
	case math.IsInf(y, 1):
		return "inf"
	case y >= 100:
		return fmt.Sprintf("%.0f", y)
	default:
		return fmt.Sprintf("%.3f", y)
	}
}

// WriteCSV renders the figure in long form with the replication dispersion
// (sample stddev, 95% half-width) and the auxiliary measurements (throughput,
// ship fraction, aborts, utilizations — from the base-seed replication) per
// point.
func (f Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,curve,rate_per_site,total_rate,y,stddev,ci95,replications,throughput,ship_fraction,mean_rt,aborts,util_local,util_central"); err != nil {
		return err
	}
	for _, c := range f.Curves {
		for _, p := range c.Points {
			r := p.Result
			reps := p.Replications
			if reps == 0 {
				reps = 1
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%g,%g,%g,%g,%g,%d,%g,%g,%g,%d,%g,%g\n",
				f.ID, c.Label, p.RatePerSite, p.TotalRate, p.Y, p.StdDev, p.HalfWidth, reps,
				r.Throughput, r.ShipFraction, r.MeanRT, r.TotalAborts(),
				r.UtilLocalMean, r.UtilCentral); err != nil {
				return err
			}
		}
	}
	return nil
}

// MaxThroughputRow is one line of the maximum-supportable-throughput table.
type MaxThroughputRow struct {
	Strategy string
	// MaxTPS is the largest swept total rate at which the mean response
	// time stays under the cutoff (§4.2 reads the knees of Figures 4.1 and
	// 4.2 this way).
	MaxTPS float64
	// RTAtMax is the mean response time at that rate.
	RTAtMax float64
}

// MaxThroughput reads the paper's "maximum transaction rate supportable" off
// a response-time figure (Supportable, or any of Figures that plots mean
// RT): per curve, the largest swept rate whose mean response time stays
// below cutoff seconds.
func MaxThroughput(fig Figure, cutoff float64) ([]MaxThroughputRow, error) {
	if cutoff <= 0 {
		return nil, fmt.Errorf("experiments: cutoff %v must be positive", cutoff)
	}
	rows := make([]MaxThroughputRow, 0, len(fig.Curves))
	for _, c := range fig.Curves {
		row := MaxThroughputRow{Strategy: c.Label}
		for _, p := range c.Points {
			if p.Y < cutoff && p.TotalRate > row.MaxTPS {
				row.MaxTPS = p.TotalRate
				row.RTAtMax = p.Y
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WritePlot renders the figure as an ASCII chart. Saturated points (infinite
// or huge response times) are clamped via a y-cap at a small multiple of the
// largest "healthy" value so the knees stay visible.
func (f Figure) WritePlot(w io.Writer) error {
	var chart plot.Chart
	chart.Title = fmt.Sprintf("Figure %s — %s", f.ID, f.Title)
	chart.XLabel = f.XLabel
	chart.YLabel = f.YLabel
	// Cap the y-axis at 4x the smallest curve maximum, so one saturated
	// baseline does not flatten every other curve.
	smallestMax := math.Inf(1)
	for _, c := range f.Curves {
		curveMax := 0.0
		for _, p := range c.Points {
			if !math.IsInf(p.Y, 0) && p.Y > curveMax {
				curveMax = p.Y
			}
		}
		if curveMax > 0 && curveMax < smallestMax {
			smallestMax = curveMax
		}
	}
	if !math.IsInf(smallestMax, 0) {
		chart.YMax = 4 * smallestMax
	}
	for _, c := range f.Curves {
		xs := make([]float64, len(c.Points))
		ys := make([]float64, len(c.Points))
		for i, p := range c.Points {
			xs[i], ys[i] = p.TotalRate, p.Y
		}
		if err := chart.Add(c.Label, xs, ys); err != nil {
			return err
		}
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
