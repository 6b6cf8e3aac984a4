// Package stats provides the estimators used to summarise simulation output:
// streaming mean/variance (Welford) with Student-t confidence intervals, and
// fixed-width histograms with mergeable, serialisable snapshots.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a sample mean and variance in one pass. The zero value
// is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 with < 2 observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }

// Merge folds other into w, as if every observation of other had been Added.
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n1, n2 := float64(w.n), float64(other.n)
	delta := other.mean - w.mean
	total := n1 + n2
	w.mean += delta * n2 / total
	w.m2 += other.m2 + delta*delta*n1*n2/total
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
	w.n += other.n
}

// CI95 returns the half-width of a 95% confidence interval on the sample
// mean, using the Student-t critical value for the sample's degrees of
// freedom (replication counts are typically small). It returns 0 with fewer
// than 2 observations.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return TQuantile95(int(w.n)-1) * w.StdDev() / math.Sqrt(float64(w.n))
}

// TQuantile95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom (tabulated for small df, the normal quantile
// beyond). It panics for df < 1, where no interval exists.
func TQuantile95(df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("stats: t-quantile needs df >= 1, got %d", df))
	}
	table := []float64{
		1:  12.706,
		2:  4.303,
		3:  3.182,
		4:  2.776,
		5:  2.571,
		6:  2.447,
		7:  2.365,
		8:  2.306,
		9:  2.262,
		10: 2.228,
	}
	switch {
	case df <= 10:
		return table[df]
	case df <= 15:
		return 2.131
	case df <= 20:
		return 2.086
	case df <= 30:
		return 2.042
	default:
		return 1.96
	}
}

// Histogram is a fixed-width histogram over [lo, hi) with overflow and
// underflow buckets.
type Histogram struct {
	lo, hi   float64
	width    float64
	buckets  []uint64
	under    uint64
	over     uint64
	observed Welford
}

// NewHistogram returns a histogram with n equal buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: NewHistogram requires n > 0 and hi > lo")
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(n), buckets: make([]uint64, n)}
}

// Add records an observation.
func (h *Histogram) Add(x float64) {
	h.observed.Add(x)
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // guard against floating-point edge
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// Count returns the total number of observations including out-of-range ones.
func (h *Histogram) Count() uint64 { return h.observed.Count() }

// Mean returns the mean of all observations (exact, not bucketed).
func (h *Histogram) Mean() float64 { return h.observed.Mean() }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) from the
// bucketed data, using linear interpolation within a bucket. Out-of-range
// mass is attributed to the range edges.
func (h *Histogram) Quantile(q float64) float64 {
	return quantile(h.lo, h.hi, h.width, h.under, h.buckets, h.Count(), q)
}

// quantile is the one percentile routine behind Histogram.Quantile and
// HistogramDump.Quantile: total observations, of which under fall below lo
// and counts[i] in [lo+i*width, lo+(i+1)*width); the rest are at or above hi.
func quantile(lo, hi, width float64, under uint64, counts []uint64, total uint64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := float64(under)
	if target <= cum {
		return lo
	}
	for i, c := range counts {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return hi
}

// Buckets returns a copy of the bucket counts.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// Under returns the number of observations below the histogram range.
func (h *Histogram) Under() uint64 { return h.under }

// Over returns the number of observations at or above the histogram range —
// mass the quantile estimator clamps to the range ceiling, so a nonzero
// count means upper quantiles are underestimates.
func (h *Histogram) Over() uint64 { return h.over }

// Merge folds other into h, as if every observation of other had been Added.
// Both histograms must share the same range and bucket count. The bucket,
// under, and over tallies merge exactly; the exact-observation accumulator
// merges via Welford.Merge, a deterministic function of the two partial
// states — so as long as both the sequential and the sharded engine
// accumulate into the same per-partition histograms and merge them in the
// same fixed order, the merged state (including Dump's exact mean) is
// bit-identical between the two modes.
func (h *Histogram) Merge(other *Histogram) {
	if h.lo != other.lo || h.hi != other.hi || len(h.buckets) != len(other.buckets) {
		panic("stats: merging histograms with different shapes")
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.under += other.under
	h.over += other.over
	h.observed.Merge(&other.observed)
}

// HistogramDump is a machine-readable snapshot of a histogram, suitable for
// JSON export and for recomputing quantiles from an artifact instead of a
// rerun. Counts holds the bucket tallies with trailing empty buckets
// trimmed; bucket i spans [Lo+i*Width, Lo+(i+1)*Width).
type HistogramDump struct {
	Lo     float64  `json:"lo"`
	Hi     float64  `json:"hi"`
	Width  float64  `json:"width"`
	Counts []uint64 `json:"counts"`
	Under  uint64   `json:"under"`
	Over   uint64   `json:"over"`
	Count  uint64   `json:"count"`
	Mean   float64  `json:"mean"`
}

// Dump snapshots the histogram.
func (h *Histogram) Dump() HistogramDump {
	n := len(h.buckets)
	for n > 0 && h.buckets[n-1] == 0 {
		n--
	}
	counts := make([]uint64, n)
	copy(counts, h.buckets[:n])
	return HistogramDump{
		Lo:     h.lo,
		Hi:     h.hi,
		Width:  h.width,
		Counts: counts,
		Under:  h.under,
		Over:   h.over,
		Count:  h.Count(),
		Mean:   h.Mean(),
	}
}

// Quantile estimates the q-quantile from the dumped buckets exactly as
// Histogram.Quantile does from the live ones. This is what lets an exported
// run manifest reproduce percentile figures without rerunning the
// simulation.
func (d HistogramDump) Quantile(q float64) float64 {
	return quantile(d.Lo, d.Hi, d.Width, d.Under, d.Counts, d.Count, q)
}
