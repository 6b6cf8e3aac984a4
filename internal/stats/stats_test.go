package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Population variance is 4; unbiased sample variance = 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("empty Welford not zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Errorf("single-sample mean/var = %v/%v", w.Mean(), w.Variance())
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			var out []float64
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var w1, w2, all Welford
		for _, x := range a {
			w1.Add(x)
			all.Add(x)
		}
		for _, x := range b {
			w2.Add(x)
			all.Add(x)
		}
		w1.Merge(&w2)
		return w1.Count() == all.Count() &&
			almostEqual(w1.Mean(), all.Mean(), 1e-6) &&
			almostEqual(w1.Variance(), all.Variance(), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeIntoEmpty(t *testing.T) {
	var a, b Welford
	b.Add(1)
	b.Add(2)
	a.Merge(&b)
	if a.Count() != 2 || !almostEqual(a.Mean(), 1.5, 1e-12) {
		t.Errorf("merge into empty: count=%d mean=%v", a.Count(), a.Mean())
	}
	var c Welford
	a.Merge(&c) // merging empty is a no-op
	if a.Count() != 2 {
		t.Errorf("merge of empty changed count to %d", a.Count())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.999, 10, 42} {
		h.Add(x)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	b := h.Buckets()
	if b[0] != 2 { // 0 and 0.5
		t.Errorf("bucket 0 = %d, want 2", b[0])
	}
	if b[5] != 1 || b[9] != 1 {
		t.Errorf("buckets = %v", b)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%100) + 0.5)
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Errorf("median = %v, want ~50", med)
	}
	if q := h.Quantile(0); q != 0 {
		t.Errorf("q0 = %v", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}

func TestNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(1, 0, 10)
}

func TestQuickHistogramCountConserved(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(0, 1, 8)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		total := h.under + h.over
		for _, c := range h.buckets {
			total += c
		}
		return total == uint64(n) && h.Count() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeOtherEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a.Mean()
	a.Merge(&b)
	if a.Mean() != before || a.Count() != 2 {
		t.Error("merging an empty accumulator changed the receiver")
	}
}

func TestWelfordMergeMinMax(t *testing.T) {
	var a, b Welford
	a.Add(5)
	b.Add(-2)
	b.Add(11)
	a.Merge(&b)
	if a.Min() != -2 || a.Max() != 11 {
		t.Errorf("merged min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{1, 2, 3, 100} { // 100 lands in overflow
		h.Add(x)
	}
	if got := h.Mean(); math.Abs(got-26.5) > 1e-12 {
		t.Errorf("histogram mean = %v, want exact 26.5 despite bucketing", got)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-5) // underflow
	h.Add(5)
	h.Add(50) // overflow
	if q := h.Quantile(0.01); q != 0 {
		t.Errorf("q0.01 with underflow mass = %v, want lo edge", q)
	}
	if q := h.Quantile(1); q != 10 {
		t.Errorf("q1 with overflow mass = %v, want hi edge", q)
	}
}

// TestDumpQuantileMatchesHistogram checks a dump answers every quantile
// bit for bit as the live histogram does, including under- and overflow
// mass and the trailing empty buckets the dump trims.
func TestDumpQuantileMatchesHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 20)
	for _, x := range []float64{-1, 0.2, 0.3, 2.5, 2.6, 4.9, 6.1, 42} {
		h.Add(x)
	}
	d := h.Dump()
	for q := 0.0; q <= 1; q += 0.01 {
		if got, want := d.Quantile(q), h.Quantile(q); got != want {
			t.Errorf("q%v: dump %v, histogram %v", q, got, want)
		}
	}
}

func TestHistogramQuantilePanicsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("quantile(2) did not panic")
		}
	}()
	h.Quantile(2)
}

// TestTQuantile95Monotone checks the t-table decreases toward the normal
// quantile as degrees of freedom grow.
func TestTQuantile95Monotone(t *testing.T) {
	prev := math.Inf(1)
	for _, df := range []int{1, 2, 3, 5, 8, 10, 12, 18, 25, 40, 100} {
		q := TQuantile95(df)
		if q > prev {
			t.Errorf("TQuantile95(%d) = %v > previous %v", df, q, prev)
		}
		if q < 1.9 {
			t.Errorf("TQuantile95(%d) = %v below the normal quantile", df, q)
		}
		prev = q
	}
	if got := TQuantile95(1000); got != 1.96 {
		t.Errorf("asymptotic quantile = %v", got)
	}
}

func TestTQuantile95PanicsWithoutFreedom(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TQuantile95(0) did not panic")
		}
	}()
	TQuantile95(0)
}

// TestCI95KnownSample checks the half-width against a hand computation: the
// sample {1,2,3,4,5} has mean 3, sample stddev sqrt(2.5), and with 4 degrees
// of freedom t = 2.776, so the half-width is 2.776*sqrt(2.5)/sqrt(5).
func TestCI95KnownSample(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Add(x)
	}
	if got := w.Mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got, want := w.StdDev(), math.Sqrt(2.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", got, want)
	}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if got := w.CI95(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

// TestCI95Degenerate checks the no-interval cases.
func TestCI95Degenerate(t *testing.T) {
	var w Welford
	if w.CI95() != 0 {
		t.Error("empty sample has a nonzero interval")
	}
	w.Add(7)
	if w.CI95() != 0 {
		t.Error("single observation has a nonzero interval")
	}
	w.Add(7)
	if w.CI95() != 0 {
		t.Error("zero-variance sample has a nonzero interval")
	}
}
