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

// TestGroupValueSteadyStateAllocs: once the outboxes, inboxes and shard
// calendars have grown, a cross-shard value message costs the heap nothing.
// Two ping-pong runs differ only in their horizon, so the allocations the
// longer one adds are those of its extra messages. A run's fixed cost moves
// by a few objects with the runtime's process-wide goroutine caches (a later
// run reuses the records of an earlier one's exited workers), so the bound
// is one allocation per thousand messages, where a per-message closure
// reads 1.
func TestGroupValueSteadyStateAllocs(t *testing.T) {
	measure := func(msgs int) (allocs float64, delivered int) {
		allocs = testing.AllocsPerRun(1, func() { delivered = pingPongValue(msgs) })
		return allocs, delivered
	}
	shortAllocs, shortMsgs := measure(20_000)
	longAllocs, longMsgs := measure(100_000)
	if longMsgs <= shortMsgs {
		t.Fatalf("the longer horizon delivered %d messages, the shorter %d", longMsgs, shortMsgs)
	}
	per := (longAllocs - shortAllocs) / float64(longMsgs-shortMsgs)
	t.Logf("%.0f allocations for %d messages, %.0f for %d: %.4f per extra message",
		shortAllocs, shortMsgs, longAllocs, longMsgs, per)
	if per >= 0.001 {
		t.Errorf("%.4f allocations per extra message, want 0", per)
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
