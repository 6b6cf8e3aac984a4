package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkScheduleStep measures steady-state churn: a rolling window of
// pending events with one Schedule and one Step per iteration. This is the
// kernel's hot path in the hybrid engine, where every CPU burst, I/O, and
// message completion schedules a successor.
func BenchmarkScheduleStep(b *testing.B) {
	s := New()
	action := func() {}
	const window = 256
	for i := 0; i < window; i++ {
		s.Schedule(float64(i%97)+1, action)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(float64(i%97)+1, action)
		s.Step()
	}
}

// BenchmarkScheduleCancel measures the cancellation path: every scheduled
// event is removed from the middle of a standing window.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	action := func() {}
	const window = 256
	for i := 0; i < window; i++ {
		s.Schedule(float64(i%97)+1, action)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(float64(i%89)+1, action)
		if !s.Cancel(e) {
			b.Fatal("pending event failed to cancel")
		}
	}
}

// holdSizes are the standing populations of the classic hold model. The
// hybrid engine keeps roughly one pending event per busy resource, so the
// small sizes are the realistic regime and the large one is the high-density
// stress (a thousand sites keep a deep heap).
var holdSizes = []struct {
	name string
	n    int
}{
	{"n256", 256},
	{"n4096", 4096},
	{"n65536", 65536},
}

// holdIncrements precomputes an exponential(1) increment stream so the RNG
// cost stays out of the timed loop.
func holdIncrements(n int) []Time {
	rng := rand.New(rand.NewSource(12345))
	incs := make([]Time, n)
	for i := range incs {
		incs[i] = Time(rng.ExpFloat64())
	}
	return incs
}

// BenchmarkHoldHeap runs the hold model on the Simulator's slab/4-ary-heap
// kernel: pop the minimum, reschedule at popped-time + exp(1).
func BenchmarkHoldHeap(b *testing.B) {
	incs := holdIncrements(1 << 16)
	for _, size := range holdSizes {
		b.Run(size.name, func(b *testing.B) {
			s := New()
			action := func() {}
			for i := 0; i < size.n; i++ {
				s.Schedule(incs[i%len(incs)], action)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
				s.Schedule(incs[i%len(incs)], action)
			}
		})
	}
}
