package exec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybriddb/internal/sim"
)

func TestSimSchedDelegates(t *testing.T) {
	s := sim.New()
	sched := Sim(s)
	if sched.Simulator() != s {
		t.Fatal("Simulator() does not return the adapted simulator")
	}
	var ranAt float64 = -1
	sched.Schedule(1.5, func() { ranAt = sched.Now() })
	s.Run()
	if ranAt != 1.5 {
		t.Fatalf("scheduled action ran at %v, want 1.5", ranAt)
	}
	// The adapter is a cast, and the interface holds the simulator pointer.
	var iface Scheduler = sched
	if iface.Now() != s.Now() {
		t.Fatal("interface Now diverges from simulator clock")
	}
}

func TestLoopPostFIFO(t *testing.T) {
	l := NewLoop()
	var order []int
	var wg sync.WaitGroup
	wg.Add(1)
	for i := 0; i < 100; i++ {
		i := i
		l.Post(func() { order = append(order, i) })
	}
	l.Post(func() { wg.Done() })
	wg.Wait()
	l.Stop()
	for i, v := range order {
		if v != i {
			t.Fatalf("out-of-order execution at %d: %v", i, order)
		}
	}
}

func TestLoopPostFromLoop(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	done := make(chan int, 1)
	l.Post(func() {
		// A post from inside the loop runs after this closure, like a
		// zero-delay simulator event.
		l.Post(func() { done <- 2 })
	})
	select {
	case v := <-done:
		if v != 2 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nested post never ran")
	}
}

func TestLoopScheduleDelay(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	start := l.Now()
	done := make(chan float64, 1)
	l.Schedule(0.05, func() { done <- l.Now() })
	select {
	case at := <-done:
		if at-start < 0.045 {
			t.Fatalf("timer fired after %.3fs, want >= ~0.05s", at-start)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestLoopScheduleNonPositiveRunsSoon(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	done := make(chan struct{})
	l.Schedule(0, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("zero-delay schedule never ran")
	}
}

func TestLoopSerializesConcurrentPosts(t *testing.T) {
	l := NewLoop()
	// A plain int mutated by every closure: the race detector fails this
	// test if loop closures ever run concurrently.
	n := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Post(func() { n++ })
			}
		}()
	}
	wg.Wait()
	flushed := make(chan struct{})
	l.Post(func() { close(flushed) })
	<-flushed
	l.Stop()
	if n != 8*200 {
		t.Fatalf("executed %d closures, want %d", n, 8*200)
	}
}

func TestLoopStopDrainsQueuedWork(t *testing.T) {
	l := NewLoop()
	n := 0
	for i := 0; i < 50; i++ {
		l.Post(func() { n++ })
	}
	l.Stop()
	if n != 50 {
		t.Fatalf("Stop drained %d of 50 queued closures", n)
	}
	// Posts and timer firings after Stop are dropped, not panics.
	l.Post(func() { n++ })
	l.Schedule(0, func() { n++ })
	time.Sleep(10 * time.Millisecond)
	if n != 50 {
		t.Fatalf("work ran after Stop: n=%d", n)
	}
}

func TestLoopNowMonotonic(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	a := l.Now()
	time.Sleep(time.Millisecond)
	b := l.Now()
	if b <= a {
		t.Fatalf("clock not advancing: %v then %v", a, b)
	}
}

// TestLoopTimersFireInDeadlineThenScheduleOrder arms timers out of deadline
// order, several on one instant, from inside the loop so every deadline is
// computed from a clock read the loop cannot advance past mid-batch.
func TestLoopTimersFireInDeadlineThenScheduleOrder(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	var order []int
	done := make(chan struct{})
	l.Post(func() {
		base := l.Now() + 0.02
		at := func(due float64, id int) {
			l.enqueue(item{due: due, fn: func() { order = append(order, id) }})
		}
		at(base+0.010, 4)
		at(base, 0)
		at(base+0.005, 2)
		at(base, 1) // same instant as 0: schedule order decides
		at(base+0.005, 3)
		at(base+0.010, 5)
		l.enqueue(item{due: base + 0.011, fn: func() { close(done) }})
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timers never fired")
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("fire order %v, want deadline order with ties in schedule order", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("fired %d of 6 timers: %v", len(order), order)
	}
}

func TestLoopScheduleFromForeignGoroutines(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	const goroutines, each = 8, 100
	n := 0 // loop-confined: the race detector checks timers run on the loop
	var fired sync.WaitGroup
	fired.Add(goroutines * each)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < each; i++ {
				l.Schedule(float64(i%7)*1e-4+1e-4, func() { n++; fired.Done() })
			}
		}()
	}
	fired.Wait()
	got := make(chan int)
	l.Post(func() { got <- n })
	if v := <-got; v != goroutines*each {
		t.Fatalf("%d timers ran, want %d", v, goroutines*each)
	}
}

// TestLoopPostsAndTimersDoNotStarveEachOther keeps the inbox permanently
// non-empty with a closure that reposts itself, and the calendar busy with a
// timer that rearms itself: each must still make progress.
func TestLoopPostsAndTimersDoNotStarveEachOther(t *testing.T) {
	l := NewLoop()
	var posts, ticks atomic.Int64
	var stop atomic.Bool
	var repost, rearm func()
	repost = func() {
		posts.Add(1)
		if !stop.Load() {
			l.Post(repost)
		}
	}
	rearm = func() {
		ticks.Add(1)
		if !stop.Load() {
			l.Schedule(1e-6, rearm)
		}
	}
	l.Post(repost)
	l.Schedule(1e-6, rearm)
	deadline := time.Now().Add(5 * time.Second)
	for (posts.Load() < 1000 || ticks.Load() < 1000) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	l.Stop()
	if posts.Load() < 1000 || ticks.Load() < 1000 {
		t.Fatalf("starvation: %d posts and %d timer firings in 5 s", posts.Load(), ticks.Load())
	}
}

func TestLoopStopDropsPendingTimers(t *testing.T) {
	l := NewLoop()
	var fired atomic.Bool
	l.Schedule(0.05, func() { fired.Store(true) })
	ran := false
	l.Post(func() { ran = true })
	l.Stop()
	time.Sleep(80 * time.Millisecond)
	if !ran {
		t.Fatal("Stop did not drain the queued post")
	}
	if fired.Load() {
		t.Fatal("a timer pending at Stop fired")
	}
}

// timerChain runs n chained Schedules — each timer arms the next, the shape
// of a live transaction's bursts and link delays — and waits for the last.
func timerChain(l *Loop, n int) {
	done := make(chan struct{})
	var step func()
	step = func() {
		if n--; n == 0 {
			close(done)
			return
		}
		l.Schedule(1e-9, step)
	}
	l.Schedule(1e-9, step)
	<-done
}

func TestLoopTimerChainAllocationFree(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	timerChain(l, 100) // warm the inbox and the calendar
	const n = 10_000
	// The chain's own closure and channel are the only allocations allowed.
	if per := testing.AllocsPerRun(3, func() { timerChain(l, n) }) / n; per > 0.01 {
		t.Fatalf("%.3f allocations per chained timer, want 0", per)
	}
}

func BenchmarkLoopPost(b *testing.B) {
	l := NewLoop()
	defer l.Stop()
	nop := func() {}
	done := make(chan struct{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Post(nop)
	}
	l.Post(func() { close(done) })
	<-done
}

// BenchmarkLoopTimerChain is one live transaction's worth of timers: 22
// chained Schedules per iteration.
func BenchmarkLoopTimerChain(b *testing.B) {
	l := NewLoop()
	defer l.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timerChain(l, 22)
	}
}
