package cluster

// The open-loop paced load generator: stands in for each site's local
// terminals, submitting generated transactions over TCP at a configured
// rate regardless of completions (open loop — queueing shows up as response
// time, not reduced offered load, matching the simulator's Poisson arrival
// process). Shared by cmd/hybridload and the e2e tests.

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/stats"
	"hybriddb/internal/workload"
)

// Pacing selects the interarrival process.
const (
	// PacingPoisson draws exponential gaps — the paper's arrival process.
	PacingPoisson = "poisson"
	// PacingUniform submits at fixed 1/rate intervals.
	PacingUniform = "uniform"
)

// LoadOptions tunes a load run.
type LoadOptions struct {
	Rate     float64 // arrivals per second per site (default cfg.ArrivalRatePerSite)
	Pacing   string  // PacingPoisson (default) or PacingUniform
	Ramp     float64 // seconds over which the rate rises linearly from 0 to Rate
	Warmup   float64 // seconds of load before the measurement window opens
	Duration float64 // measured seconds (required)
	Threads  int     // connections per site (default 2)
	Seed     uint64  // workload + pacing seed (default 1)

	// RequestTimeout bounds one submission round trip (default 30s); a
	// timeout counts as an error, which is how a lost message or wedged
	// site surfaces.
	RequestTimeout time.Duration

	// Progress, when set, is called every ProgressEvery (default 2s) from
	// a dedicated goroutine with the measurement window so far, and once
	// more when the run ends — the feed of hybridload's drift ticker.
	Progress      func(LoadProgress)
	ProgressEvery time.Duration

	// Flight, when set, records each submission and completion, so a
	// SIGQUIT dump of the load generator shows its recent traffic.
	Flight *flight.Recorder
}

// LoadProgress is a snapshot of the measurement window partway through a
// run.
type LoadProgress struct {
	Elapsed      float64 // wall seconds since the run started
	Submitted    uint64
	Completed    uint64
	Errors       uint64
	MeanRT       float64 // seconds, window so far
	ShipFraction float64
	Final        bool // true on the closing callback
}

func (o *LoadOptions) defaults(cfg hybrid.Config) error {
	if o.Rate <= 0 {
		o.Rate = cfg.ArrivalRatePerSite
	}
	if o.Rate <= 0 {
		return fmt.Errorf("cluster: load rate must be positive")
	}
	switch o.Pacing {
	case "":
		o.Pacing = PacingPoisson
	case PacingPoisson, PacingUniform:
	default:
		return fmt.Errorf("cluster: unknown pacing %q (want %q or %q)", o.Pacing, PacingPoisson, PacingUniform)
	}
	if o.Duration <= 0 {
		return fmt.Errorf("cluster: load duration must be positive")
	}
	if o.Warmup < 0 || o.Ramp < 0 {
		return fmt.Errorf("cluster: negative warmup or ramp")
	}
	if o.Threads <= 0 {
		o.Threads = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	return nil
}

// LoadResult aggregates a load run's measurement window.
type LoadResult struct {
	Submitted uint64 // submissions whose RT falls in the window
	Completed uint64
	Errors    uint64 // timeouts and transport failures (any submission)

	LocalA   uint64 // completed class A at the home site
	ShippedA uint64 // completed class A shipped to central
	ClassB   uint64 // completed class B (always central)

	MeanRT       float64 // seconds, all classes
	P50RT, P95RT float64
	ShipFraction float64 // ShippedA / (LocalA + ShippedA)
	Throughput   float64 // completions per second across all sites

	Elapsed float64          // wall seconds of the whole run
	Hist    *stats.Histogram // RT histogram of the window
}

// loadAgg collects completions under a lock (the only cross-goroutine
// state of a load run).
type loadAgg struct {
	mu   sync.Mutex
	res  LoadResult
	sum  float64
	hist *stats.Histogram
}

func (a *loadAgg) record(res netx.Result, rt float64, inWindow bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !inWindow {
		return
	}
	a.res.Completed++
	a.sum += rt
	a.hist.Add(rt)
	switch {
	case res.ClassB:
		a.res.ClassB++
	case res.Shipped:
		a.res.ShippedA++
	default:
		a.res.LocalA++
	}
}

func (a *loadAgg) fail() {
	a.mu.Lock()
	a.res.Errors++
	a.mu.Unlock()
}

// progress snapshots the window so far.
func (a *loadAgg) progress(elapsed float64) LoadProgress {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := LoadProgress{
		Elapsed:   elapsed,
		Submitted: a.res.Submitted,
		Completed: a.res.Completed,
		Errors:    a.res.Errors,
	}
	if a.res.Completed > 0 {
		p.MeanRT = a.sum / float64(a.res.Completed)
	}
	if routed := a.res.LocalA + a.res.ShippedA; routed > 0 {
		p.ShipFraction = float64(a.res.ShippedA) / float64(routed)
	}
	return p
}

// rampedGap stretches gap — an interarrival time drawn at the full rate,
// starting at t seconds into the run — to the arrival process whose rate
// rises linearly from zero at t = 0 to the full rate at t = ramp: the exact
// time change t' = sqrt(t² + 2·ramp·gap) while inside the ramp, any part of
// the gap left over at its end spent at the full rate. It returns t' − t.
func rampedGap(t, gap, ramp float64) float64 {
	if t >= ramp {
		return gap
	}
	// Crossing the rest of the ramp uses up this much of the gap.
	if toEnd := (ramp*ramp - t*t) / (2 * ramp); gap > toEnd {
		return ramp - t + gap - toEnd
	}
	return math.Sqrt(t*t+2*ramp*gap) - t
}

// pacer returns one site's arrival schedule: called with the seconds elapsed
// since the run started, it draws how long to wait for the next arrival.
func (o *LoadOptions) pacer(site int) func(elapsed float64) float64 {
	arrivals := workload.NewArrivals(o.Rate, o.Seed+uint64(site)*0x9E3779B97F4A7C15+1)
	return func(elapsed float64) float64 {
		gap := 1 / o.Rate
		if o.Pacing != PacingUniform {
			gap = arrivals.Next()
		}
		return rampedGap(elapsed, gap, o.Ramp)
	}
}

// RunLoad drives a paced open-loop workload against the sites at addrs
// (addrs[i] is site i) and reports the measurement window [Warmup,
// Warmup+Duration), measured from the submitter's side: RT spans
// submission to result, per request. The context cancels the run early;
// what was measured so far is still returned.
func RunLoad(ctx context.Context, addrs []string, cfg hybrid.Config, opt LoadOptions) (*LoadResult, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no site addresses")
	}
	if err := opt.defaults(cfg); err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(cfg.WorkloadConfig(), opt.Seed)
	if len(addrs) != cfg.Sites {
		return nil, fmt.Errorf("cluster: %d site addresses for %d configured sites", len(addrs), cfg.Sites)
	}

	// RT scale: seconds. The histogram spans [0, 30s) at 1ms resolution
	// per quantile bucket — far beyond any sane loopback RT.
	agg := &loadAgg{hist: stats.NewHistogram(0, 30, 3000)}

	conns := make([][]*netx.Conn, len(addrs))
	defer func() {
		for _, cs := range conns {
			for _, c := range cs {
				c.Close()
			}
		}
	}()
	for i, addr := range addrs {
		for k := 0; k < opt.Threads; k++ {
			nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, fmt.Errorf("cluster: dial site %d: %w", i, err)
			}
			conn := netx.NewConn(nc, netx.Options{})
			go conn.Serve(nil) // Call correlation only
			conns[i] = append(conns[i], conn)
		}
	}

	start := time.Now()
	var progressDone chan struct{}
	if opt.Progress != nil {
		every := opt.ProgressEvery
		if every <= 0 {
			every = 2 * time.Second
		}
		progressDone = make(chan struct{})
		go func() {
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-progressDone:
					return
				case <-tick.C:
					opt.Progress(agg.progress(time.Since(start).Seconds()))
				}
			}
		}()
	}
	horizon := opt.Warmup + opt.Duration
	var inflight sync.WaitGroup
	var pacers sync.WaitGroup
	for site := range addrs {
		site := site
		pacers.Add(1)
		go func() {
			defer pacers.Done()
			wait := opt.pacer(site)
			next := 0 // round-robin over the site's connections
			for {
				elapsed := time.Since(start).Seconds()
				if elapsed >= horizon || ctx.Err() != nil {
					return
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Duration(wait(elapsed) * float64(time.Second))):
				}
				at := time.Since(start).Seconds()
				if at >= horizon {
					return
				}
				spec := gen.Next(site) // one pacer per site: disjoint streams
				conn := conns[site][next%len(conns[site])]
				next++
				inWindow := at >= opt.Warmup
				if inWindow {
					agg.mu.Lock()
					agg.res.Submitted++
					agg.mu.Unlock()
				}
				if opt.Flight != nil {
					opt.Flight.RecordFrame(flight.Out, "submit", spec.ID, site)
				}
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					cctx, cancel := context.WithTimeout(context.Background(), opt.RequestTimeout)
					defer cancel()
					t0 := time.Now()
					f, err := conn.Call(cctx, netx.MsgSubmit, netx.AppendTxn(nil, spec))
					if err != nil {
						if opt.Flight != nil {
							opt.Flight.Recordf(flight.Note, "error", "txn %d: %v", spec.ID, err)
						}
						agg.fail()
						return
					}
					res, err := netx.DecodeResult(f.Payload)
					if err != nil || res.Txn != spec.ID {
						if opt.Flight != nil {
							opt.Flight.Recordf(flight.Note, "error", "txn %d: bad result", spec.ID)
						}
						agg.fail()
						return
					}
					rt := time.Since(t0).Seconds()
					if opt.Flight != nil {
						opt.Flight.RecordFrame(flight.In, "result", spec.ID, site)
					}
					agg.record(res, rt, inWindow)
				}()
			}
		}()
	}
	pacers.Wait()
	// Let the tail of in-flight requests complete (bounded by the request
	// timeout via their individual contexts).
	done := make(chan struct{})
	go func() { inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
	}
	if progressDone != nil {
		close(progressDone)
		p := agg.progress(time.Since(start).Seconds())
		p.Final = true
		opt.Progress(p)
	}

	agg.mu.Lock()
	defer agg.mu.Unlock()
	r := agg.res
	r.Elapsed = time.Since(start).Seconds()
	r.Hist = agg.hist
	if r.Completed > 0 {
		r.MeanRT = agg.sum / float64(r.Completed)
		r.P50RT = agg.hist.Quantile(0.50)
		r.P95RT = agg.hist.Quantile(0.95)
	}
	if a := r.LocalA + r.ShippedA; a > 0 {
		r.ShipFraction = float64(r.ShippedA) / float64(a)
	}
	r.Throughput = float64(r.Completed) / opt.Duration
	return &r, ctx.Err()
}
