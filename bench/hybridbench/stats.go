package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileSorted reads the q-quantile (0 <= q <= 1) off an ascending slice
// by linear interpolation between closest ranks. Empty input reads 0.
func percentileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 { return percentileSorted(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// highestSupportedPercentile returns the largest of the candidate quantiles
// that still has at least ten samples beyond it in a sample of size n — the
// rule the choosing-metrics guide sets for the tail a sample can support.
func highestSupportedPercentile(n int, candidates []float64) (q float64, ok bool) {
	for _, c := range candidates {
		if float64(n)*(1-c) >= 10 && c > q {
			q, ok = c, true
		}
	}
	return q, ok
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is the
// rule the acceptance driver applies to ten runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// latenessUs converts (due, sent) instants in nanoseconds into how late each
// send ran, in microseconds; a send ahead of its due time is not late.
func latenessUs(dueNs, sentNs []int64) []float64 {
	out := make([]float64, len(dueNs))
	for i := range dueNs {
		if d := sentNs[i] - dueNs[i]; d > 0 {
			out[i] = float64(d) / 1e3
		}
	}
	return out
}
