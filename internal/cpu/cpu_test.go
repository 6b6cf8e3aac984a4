package cpu

import (
	"math"
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/rng"
	"hybriddb/internal/sim"
	"hybriddb/internal/stats"
)

func TestServiceTime(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 15) // 15 MIPS
	got := c.ServiceTime(300_000)
	want := 0.02 // 300K instructions at 15M instr/s
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ServiceTime = %v, want %v", got, want)
	}
}

func TestSingleBurstCompletes(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	var doneAt float64 = -1
	c.Submit(1e6, func() { doneAt = s.Now() })
	s.Run()
	if doneAt != 1.0 {
		t.Fatalf("burst completed at %v, want 1.0", doneAt)
	}
	if c.Completed() != 1 {
		t.Fatalf("completed = %d", c.Completed())
	}
}

func TestFCFSOrderAndTiming(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	var finish []float64
	for i := 0; i < 3; i++ {
		c.Submit(1e6, func() { finish = append(finish, s.Now()) })
	}
	s.Run()
	want := []float64{1, 2, 3}
	if len(finish) != 3 {
		t.Fatalf("finished %d bursts", len(finish))
	}
	for i := range want {
		if math.Abs(finish[i]-want[i]) > 1e-9 {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
}

func TestQueueLength(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	if c.QueueLength() != 0 {
		t.Fatal("idle queue not 0")
	}
	c.Submit(1e6, func() {})
	c.Submit(1e6, func() {})
	c.Submit(1e6, func() {})
	if c.QueueLength() != 3 {
		t.Fatalf("queue length = %d, want 3 (1 running + 2 waiting)", c.QueueLength())
	}
	s.Run()
	if c.QueueLength() != 0 {
		t.Fatalf("queue length after drain = %d", c.QueueLength())
	}
}

func TestQueueLengthInsideCallback(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	var observed []int
	for i := 0; i < 3; i++ {
		c.Submit(1e6, func() { observed = append(observed, c.QueueLength()) })
	}
	s.Run()
	// When a burst's callback runs, the finished burst is gone and the next
	// one is already in service: lengths 2, 1, 0.
	want := []int{2, 1, 0}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("observed %v, want %v", observed, want)
		}
	}
}

func TestZeroInstructionBurst(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	ran := false
	c.Submit(0, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("zero burst never completed")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	c.Submit(1e6, func() {})
	j := c.Submit(1e6, func() { t.Fatal("cancelled job ran") })
	if !c.Cancel(j) {
		t.Fatal("Cancel returned false for queued job")
	}
	if c.Cancel(j) {
		t.Fatal("second Cancel returned true")
	}
	s.Run()
	if c.Completed() != 1 {
		t.Fatalf("completed = %d, want 1", c.Completed())
	}
}

func TestCancelRunningJobFails(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	j := c.Submit(1e6, func() {})
	if c.Cancel(j) {
		t.Fatal("cancelled a running job")
	}
	s.Run()
}

func TestUtilizationAccounting(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	c.Submit(1e6, func() {}) // busy [0,1]
	s.Run()
	s.RunUntil(4) // idle [1,4]
	if got := c.BusyTime(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("BusyTime = %v, want 1", got)
	}
	if got := c.Utilization(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.25", got)
	}
}

func TestBusyTimeIncludesPartialBurst(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	c.Submit(10e6, func() {}) // 10 s burst
	s.Schedule(4, func() {
		if got := c.BusyTime(); math.Abs(got-4) > 1e-9 {
			t.Errorf("partial BusyTime = %v, want 4", got)
		}
		if !c.Busy() {
			t.Error("server not busy mid-burst")
		}
	})
	s.Run()
}

func TestSubmitFromCallbackChains(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 2)
	var doneAt float64
	c.Submit(1e6, func() {
		c.Submit(1e6, func() { doneAt = s.Now() })
	})
	s.Run()
	if math.Abs(doneAt-1.0) > 1e-9 { // two 0.5 s bursts back to back
		t.Fatalf("chained completion at %v, want 1.0", doneAt)
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { NewServer(exec.Sim(sim.New()), 0) },
		func() { NewServer(nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestNegativeBurstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative burst did not panic")
		}
	}()
	NewServer(exec.Sim(sim.New()), 1).Submit(-1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	NewServer(exec.Sim(sim.New()), 1).Submit(1, nil)
}

// md1ResponseTime is the mean sojourn time of an M/D/1 queue — Poisson
// arrivals at rate lambda, deterministic service of 1/mu — by
// Pollaczek–Khinchine: W = 1/mu + rho/(2*mu*(1-rho)), for rho < 1.
func md1ResponseTime(lambda, mu float64) float64 {
	rho := lambda / mu
	return 1/mu + rho/(2*mu*(1-rho))
}

// poissonBursts submits fixed-size bursts to c at Poisson rate lambda until
// horizon; done receives each burst's sojourn time.
func poissonBursts(s *sim.Simulator, c *Server, seed uint64, lambda, instructions, horizon float64, done func(sojourn float64)) {
	src := rng.New(seed)
	var arrive func()
	arrive = func() {
		gap := src.Exp(1 / lambda)
		if s.Now()+gap > horizon {
			return
		}
		s.Schedule(gap, func() {
			start := s.Now()
			c.Submit(instructions, func() { done(s.Now() - start) })
			arrive()
		})
	}
	arrive()
}

// TestCPUServerMatchesMD1 validates the CPU server against theory: Poisson
// arrivals of fixed-length bursts form an M/D/1 queue, so the simulated mean
// sojourn time must match Pollaczek–Khinchine.
func TestCPUServerMatchesMD1(t *testing.T) {
	const (
		mips         = 1.0
		instructions = 100_000 // 0.1 s deterministic service
		lambda       = 7.0     // rho = 0.7
		horizon      = 20_000.0
	)
	s := sim.New()
	server := NewServer(exec.Sim(s), mips)
	var sojourn stats.Welford
	poissonBursts(s, server, 99, lambda, instructions, horizon, sojourn.Add)
	s.Run()

	mu := 1 / server.ServiceTime(instructions) // 10 per second
	want := md1ResponseTime(lambda, mu)
	got := sojourn.Mean()
	if sojourn.Count() < 100_000 {
		t.Fatalf("only %d samples", sojourn.Count())
	}
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("simulated M/D/1 sojourn %v, theory %v (rel err %.3f)",
			got, want, math.Abs(got-want)/want)
	}
}

// TestCPUServerUtilizationMatchesOfferedLoad cross-checks the server's busy
// time accounting against rho = lambda/mu.
func TestCPUServerUtilizationMatchesOfferedLoad(t *testing.T) {
	s := sim.New()
	server := NewServer(exec.Sim(s), 1)
	const lambda, instructions, horizon = 4.0, 100_000, 5_000.0
	poissonBursts(s, server, 7, lambda, instructions, horizon, func(float64) {})
	s.RunUntil(horizon)
	if got := server.Utilization(); math.Abs(got-0.4) > 0.02 {
		t.Errorf("utilization = %v, want ~0.4", got)
	}
}
