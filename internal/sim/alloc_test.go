package sim

import "testing"

// TestScheduleRunAllocFree guards the kernel's steady-state allocation
// contract: once the slot slab has reached the high-water population, a full
// schedule-then-drain cycle performs zero allocations. This pins the 0 B/op
// of BenchmarkScheduleRun (which regressed to 21–24 B/op when the free list
// was allowed to grow lazily during Run) so it cannot creep back silently.
func TestScheduleRunAllocFree(t *testing.T) {
	const events = 2048
	s := New()
	action := func() {}
	cycle := func() {
		for i := 0; i < events; i++ {
			s.Schedule(float64(i%97)+1, action)
		}
		s.Run()
	}
	cycle() // warm the slab, the heap, and the free list to capacity
	if got := testing.AllocsPerRun(10, cycle); got != 0 {
		t.Errorf("schedule+run cycle allocates %v times per run, want 0", got)
	}
}

// TestScheduleStepAllocFree guards the rolling-window churn path (one
// Schedule + one Step per iteration), the engine's hot shape.
func TestScheduleStepAllocFree(t *testing.T) {
	s := New()
	action := func() {}
	for i := 0; i < 256; i++ {
		s.Schedule(float64(i%97)+1, action)
	}
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		s.Schedule(float64(i%97)+1, action)
		s.Step()
		i++
	}); got != 0 {
		t.Errorf("schedule+step allocates %v times per run, want 0", got)
	}
}
