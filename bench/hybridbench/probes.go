package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybriddb/internal/comm"
	"hybriddb/internal/cpu"
	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/lock"
	"hybriddb/internal/netx"
	"hybriddb/internal/rng"
	"hybriddb/internal/routing"
	"hybriddb/internal/sim"
	"hybriddb/internal/stats"
	"hybriddb/internal/workload"
)

// Layer probes: counted loops over each layer's exported functions, timed
// from outside. Each probe reports the median of five repetitions, in
// nanoseconds (or microseconds) per operation. Multiplied by the
// per-transaction operation counts of a traced run they make the layer
// budget; on their own they say what one operation of a layer costs today.

type probeConfig struct {
	quick  bool
	pWrite float64 // the workload's exclusive share, for the lock lifecycle mix
	calls  int     // lock requests per transaction
	// mix weighs the wire message types by how often a traced live run sent
	// them; nil uses referenceMix.
	mix map[byte]float64
}

// referenceMix is the share of each message type among the frames of one
// traced live-wire run (seed 1) on the reference host; it weighs the codec
// cost when the workload itself sends no frames. A traced live run prints
// its own measured mix, which is where these numbers come from.
var referenceMix = map[byte]float64{
	netx.MsgSubmit: 0.1481, netx.MsgResult: 0.1481, netx.MsgShip: 0.0997, netx.MsgReply: 0.0997,
	netx.MsgAuthReq: 0.1379, netx.MsgAuthReply: 0.1379, netx.MsgRelease: 0.1377,
	netx.MsgUpdate: 0.0455, netx.MsgUpdateAck: 0.0455,
}

type prober struct {
	rec    *recorder
	parent int
	reps   int
	scale  int // divides iteration counts in quick mode
	out    map[string]float64
}

// measure runs body(n) reps times under a span and returns the median time
// per operation, in nanoseconds.
func (p *prober) measure(name string, n int, body func(n int)) float64 {
	n = max(n/p.scale, 16)
	sp := p.rec.begin("probe:"+name, p.parent)
	samples := make([]float64, 0, p.reps)
	for r := 0; r < p.reps; r++ {
		t0 := time.Now()
		body(n)
		samples = append(samples, float64(time.Since(t0))/float64(n))
	}
	p.rec.end(sp)
	return median(samples)
}

// perOp records measure's result as the metric of the same name.
func (p *prober) perOp(name string, n int, body func(n int)) {
	p.out[name] = p.measure(name, n, body)
}

// runProbes runs every layer probe and returns the probe metrics by name.
func runProbes(rec *recorder, parent int, cfg probeConfig) (map[string]float64, error) {
	p := &prober{rec: rec, parent: parent, reps: 5, scale: 1, out: make(map[string]float64)}
	if cfg.quick {
		p.reps, p.scale = 1, 50
	}
	p.simProbes()
	p.lockProbes(cfg)
	p.cpuProbes()
	p.workloadProbes()
	p.routingProbes()
	p.commProbe()
	p.statsProbe()
	p.hybridProbe()
	p.execProbes()
	if err := p.netxProbes(cfg); err != nil {
		return nil, fmt.Errorf("netx probes: %w", err)
	}
	return p.out, nil
}

// ---- sim.

// holdDelays are the pre-drawn increments of the hold model: pop the
// earliest event, schedule a new one an exponential increment later.
func holdDelays(n int) []float64 {
	src := rng.New(42)
	d := make([]float64, n)
	for i := range d {
		d[i] = src.Exp(1)
	}
	return d
}

// primeHold fills s with `pending` self-rescheduling events.
func primeHold(s *sim.Simulator, pending int, delays []float64) {
	i := 0
	var hold func()
	hold = func() {
		s.Schedule(delays[i&(len(delays)-1)], hold)
		i++
	}
	for k := 0; k < pending; k++ {
		hold()
	}
}

func (p *prober) simProbes() {
	delays := holdDelays(1 << 12)
	for _, c := range []struct {
		name    string
		pending int
	}{{"sim.schedule_step_ns", 256}, {"sim.hold_64k_ns", 1 << 16}} {
		s := sim.New()
		primeHold(s, c.pending, delays)
		p.perOp(c.name, 200_000, func(n int) {
			for i := 0; i < n; i++ {
				s.Step()
			}
		})
	}
	{
		s := sim.New()
		primeHold(s, 256, delays)
		nop := func() {}
		p.perOp("sim.cancel_ns", 400_000, func(n int) {
			for i := 0; i < n; i++ {
				s.Cancel(s.Schedule(delays[i&(len(delays)-1)], nop))
			}
		})
	}
	// Cross-shard messages: 64 ping-pong chains between two shards, each
	// delivery posting the next message one lookahead later.
	p.perOp("sim.group_post_ns", 200_000, func(n int) {
		const lookahead, chains = 0.2, 64
		shards := []*sim.Simulator{sim.New(), sim.New()}
		g := sim.NewGroup(shards, 2, lookahead)
		g.SetWatchdog(0)
		var bounce [2]func()
		for side := 0; side < 2; side++ {
			side := side
			bounce[side] = func() {
				g.Post(side, 1-side, side, shards[side].Now()+lookahead, bounce[1-side])
			}
		}
		for c := 0; c < chains; c++ {
			shards[c&1].Schedule(float64(c)*lookahead/chains, bounce[c&1])
		}
		// Each chain delivers one message per lookahead of simulated time.
		g.Run(float64(n) / chains * lookahead)
	})
	// Synchronization overhead: the same number of hold events on two
	// shards under Group.Run against one Simulator, no messages exchanged.
	const events = 400_000
	grouped := p.measure("sim.group_sync_overhead:group", events, func(n int) {
		shards := []*sim.Simulator{sim.New(), sim.New()}
		primeHold(shards[0], 256, delays)
		primeHold(shards[1], 256, delays)
		g := sim.NewGroup(shards, 2, 0.2)
		g.SetWatchdog(0)
		// 512 pending events at unit mean increment: n events take about
		// n/512 simulated seconds.
		g.Run(float64(n) / 512)
	})
	single := p.measure("sim.group_sync_overhead:single", events, func(n int) {
		s := sim.New()
		primeHold(s, 512, delays)
		s.RunUntil(float64(n) / 512)
	})
	p.out["sim.group_sync_overhead"] = grouped / single
}

// ---- lock.

func (p *prober) lockProbes(cfg probeConfig) {
	// A transaction's life in the lock manager: `calls` uncontended
	// acquires at the workload's share/exclusive mix, then ReleaseAll.
	src := rng.New(7)
	modes := make([]lock.Mode, 1<<10)
	for i := range modes {
		modes[i] = lock.Share
		if src.Bool(cfg.pWrite) {
			modes[i] = lock.Exclusive
		}
	}
	{
		m := lock.NewManager()
		calls := uint32(cfg.calls)
		p.perOp("lock.txn_lifecycle_ns", 60_000, func(n int) {
			for i := 0; i < n; i++ {
				id := lock.ID(i % 32)
				base := uint32(i%97) * calls
				for k := uint32(0); k < calls; k++ {
					m.Acquire(id, base+k, modes[(uint32(i)*calls+k)&uint32(len(modes)-1)], nil)
				}
				m.ReleaseAll(id)
			}
		})
	}
	{
		m := lock.NewManager()
		p.perOp("lock.coherence_ns", 400_000, func(n int) {
			for i := 0; i < n; i++ {
				elem := uint32(i % 509)
				m.IncrCoherence(elem)
				m.DecrCoherence(elem)
			}
		})
	}
	{
		m := lock.NewManager()
		nop := func() {}
		p.perOp("lock.contended_ns", 200_000, func(n int) {
			const elem = 7
			for i := 0; i < n; i++ {
				a, c := lock.ID(2*(i%100)), lock.ID(2*(i%100)+1)
				m.Acquire(a, elem, lock.Exclusive, nil)
				m.Acquire(c, elem, lock.Exclusive, nop) // queues
				m.Release(a, elem)                      // grants c
				m.Release(c, elem)
			}
		})
	}
	{
		m := lock.NewManager()
		holders := []lock.ID{10, 20, 30, 40}
		p.perOp("lock.seize_ns", 100_000, func(n int) {
			const elem = 1
			for i := 0; i < n; i++ {
				for _, id := range holders {
					m.Acquire(id, elem, lock.Share, nil)
				}
				central := lock.ID(1000 + i%16)
				m.Seize(central, elem, lock.Exclusive) // four victims
				m.ReleaseAll(central)
			}
		})
	}
	{
		// A wait-for chain of depth four: transaction i holds element i and
		// waits for element i+1; transaction 4 holds element 4 and waits
		// for nothing. Its request for element 1 walks 1 -> 2 -> 3 -> 4,
		// finds itself, and is refused — nothing is enqueued, so the probe
		// repeats without cleanup.
		m := lock.NewManager()
		nop := func() {}
		for i := 1; i <= 4; i++ {
			m.Acquire(lock.ID(i), uint32(i), lock.Exclusive, nil)
		}
		for i := 1; i <= 3; i++ {
			m.Acquire(lock.ID(i), uint32(i+1), lock.Exclusive, nop)
		}
		p.perOp("lock.deadlock_ns", 400_000, func(n int) {
			for i := 0; i < n; i++ {
				if m.Acquire(4, 1, lock.Exclusive, nop) != lock.Deadlock {
					panic("hybridbench: deadlock probe did not detect the cycle")
				}
			}
		})
	}
}

// ---- cpu.

func (p *prober) cpuProbes() {
	nop := func() {}
	{
		s := sim.New()
		srv := cpu.NewServer(exec.Sim(s), 1)
		p.perOp("cpu.submit_finish_ns", 400_000, func(n int) {
			for i := 0; i < n; i++ {
				srv.Submit(30_000, nop)
				s.Step() // the burst's completion event
			}
		})
	}
	{
		s := sim.New()
		srv := cpu.NewServer(exec.Sim(s), 1)
		p.perOp("cpu.submit_queued_ns", 400_000, func(n int) {
			for i := 0; i < n; i += 64 {
				for k := 0; k < 64; k++ {
					srv.Submit(30_000, nop)
				}
				s.Run() // 64 completions, each dispatching the next
			}
		})
	}
}

// ---- workload.

func (p *prober) workloadProbes() {
	base := hybrid.DefaultConfig().WorkloadConfig()
	skewed := base
	skewed.SkewTheta = 0.8
	for _, c := range []struct {
		name string
		cfg  workload.Config
	}{{"workload.next_ns", base}, {"workload.next_skewed_ns", skewed}} {
		gen := workload.NewGenerator(c.cfg, 1)
		spec := gen.Next(0)
		var allocs float64
		p.perOp(c.name, 60_000, func(n int) {
			m0 := mallocs()
			for i := 0; i < n; i++ {
				spec = gen.NextInto(i%c.cfg.Sites, spec)
			}
			allocs = float64(mallocs()-m0) / float64(n)
		})
		if c.name == "workload.next_ns" {
			p.out["workload.next_allocs"] = allocs
		}
	}
}

// ---- routing.

var decisionSink routing.Decision

func (p *prober) routingProbes() {
	cfg := hybrid.DefaultConfig()
	states := make([]routing.State, 64)
	src := rng.New(11)
	for i := range states {
		states[i] = routing.State{
			Site: i % cfg.Sites, LocalQueue: src.Intn(4), LocalInSystem: src.Intn(8), LocalLocks: src.Intn(60),
			CentralQueue: src.Intn(6), CentralInSystem: src.Intn(40), CentralLocks: src.Intn(300), ViewAge: 0.3,
		}
	}
	for _, c := range []struct {
		name  string
		strat routing.Strategy
		n     int
	}{
		{"routing.decide_best_ns", bestStrategy(cfg), 20_000}, // microseconds per decision: the model is solved twice
		{"routing.decide_static_ns", routing.NewStatic(0.5, 7), 400_000},
	} {
		p.perOp(c.name, c.n, func(n int) {
			for i := 0; i < n; i++ {
				decisionSink = c.strat.Decide(states[i&63])
			}
		})
	}
}

// ---- comm.

func (p *prober) commProbe() {
	s := sim.New()
	nw := comm.NewNetwork(s, 10, 0.2)
	nop := func() {}
	p.perOp("comm.send_deliver_ns", 400_000, func(n int) {
		for i := 0; i < n; i++ {
			nw.ToCentral(i%10, nop)
			s.Step() // the delivery event
		}
	})
}

// ---- stats.

func (p *prober) statsProbe() {
	h := stats.NewHistogram(0, 60, 600) // the engine's response-time histograms
	src := rng.New(3)
	xs := make([]float64, 1<<10)
	for i := range xs {
		xs[i] = src.Exp(1)
	}
	p.perOp("stats.hist_add_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			h.Add(xs[i&(len(xs)-1)])
		}
	})
}

// ---- hybrid.

func (p *prober) hybridProbe() {
	plan := simPlanFor(wlSimScale, 1, 1)
	sp := p.rec.begin("probe:hybrid.new_ms", p.parent)
	var samples []float64
	for r := 0; r < p.reps; r++ {
		runtime.GC()
		_, dt, err := plan.newEngine(2)
		if err != nil {
			panic(err)
		}
		samples = append(samples, dt*1e3)
	}
	p.rec.end(sp)
	p.out["hybrid.new_ms"] = median(samples)
}

// ---- exec.

func (p *prober) execProbes() {
	{
		// Post to an idle loop and wait for the closure to run: the cost of
		// one hop onto a node's event loop, single producer, empty queue.
		l := exec.NewLoop()
		var ran atomic.Int64
		fn := func() { ran.Add(1) }
		p.perOp("exec.post_ns", 100_000, func(n int) {
			base := ran.Load()
			for i := 0; i < n; i++ {
				l.Post(fn)
				for ran.Load() != base+int64(i)+1 {
					runtime.Gosched()
				}
			}
		})
		l.Stop()
	}
	{
		// 1024 closures queued behind a blocked loop, then released: per
		// closure, enqueue plus dequeue at depth.
		l := exec.NewLoop()
		nop := func() {}
		p.perOp("exec.post_depth1k_ns", 64*1024, func(n int) {
			for i := 0; i < n; i += 1024 {
				gate, drained := make(chan struct{}), make(chan struct{})
				l.Post(func() { <-gate })
				for k := 0; k < 1024; k++ {
					l.Post(nop)
				}
				l.Post(func() { close(drained) })
				close(gate)
				<-drained
			}
		})
		l.Stop()
	}
	p.timerLateness("exec.timer_late_p50_us", "exec.timer_late_p99_us", 1e-3, 1500, false)
	p.timerLateness("exec.timer_late_busy_p50_us", "", 50e-6, 1500, true)
}

// timerLateness arms n timers on a loop in one go, their deadlines `delay`
// plus a multiple of 0.3 ms away, and records how long after its deadline
// each one ran on the loop. busy keeps a stream of posts flowing meanwhile.
func (p *prober) timerLateness(p50Name, p99Name string, delay float64, n int, busy bool) {
	n = max(n/p.scale, 20)
	sp := p.rec.begin("probe:"+p50Name, p.parent)
	defer p.rec.end(sp)
	l := exec.NewLoop()
	defer l.Stop()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if busy {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nop := func() {}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 32; i++ {
					l.Post(nop)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	late := make([]float64, n)
	var fired sync.WaitGroup
	fired.Add(n)
	const spacing = 300e-6
	for i := 0; i < n; i++ {
		i := i
		d := delay + float64(i)*spacing
		deadline := l.Now() + d
		l.Schedule(d, func() {
			late[i] = (l.Now() - deadline) * 1e6
			fired.Done()
		})
	}
	fired.Wait()
	close(stop)
	wg.Wait()
	sort.Float64s(late)
	p.out[p50Name] = percentileSorted(late, 0.50)
	if p99Name != "" {
		p.out[p99Name] = percentileSorted(late, 0.99)
	}
}

// ---- netx.

// codecCase is one wire message: how to encode it into dst and decode it.
type codecCase struct {
	msg    byte
	encode func(dst []byte) []byte
	decode func(b []byte) error
}

func codecCases() []codecCase {
	gen := workload.NewGenerator(hybrid.DefaultConfig().WorkloadConfig(), 1)
	spec := gen.Next(0)
	snap := netx.Snapshot{Queue: 3, InSystem: 12, Locks: 80}
	elems := spec.Elements[:3]
	return []codecCase{
		{netx.MsgSubmit, func(d []byte) []byte { return netx.AppendTxn(d, spec) },
			func(b []byte) error { _, err := netx.DecodeTxn(b); return err }},
		{netx.MsgResult, func(d []byte) []byte { return netx.AppendResult(d, netx.Result{Txn: spec.ID, Shipped: true}) },
			func(b []byte) error { _, err := netx.DecodeResult(b); return err }},
		{netx.MsgShip, func(d []byte) []byte { return netx.AppendShip(d, spec, true) },
			func(b []byte) error { _, _, err := netx.DecodeShip(b); return err }},
		{netx.MsgAuthReq, func(d []byte) []byte {
			return netx.AppendAuthReq(d, netx.AuthReq{Txn: spec.ID, Elements: elems, Modes: spec.Modes[:3], Snap: snap, Traced: true})
		}, func(b []byte) error { _, err := netx.DecodeAuthReq(b); return err }},
		{netx.MsgAuthReply, func(d []byte) []byte { return netx.AppendAuthReply(d, netx.AuthReply{Txn: spec.ID, Site: 1}) },
			func(b []byte) error { _, err := netx.DecodeAuthReply(b); return err }},
		{netx.MsgRelease, func(d []byte) []byte { return netx.AppendRelease(d, netx.Release{Txn: spec.ID, Snap: snap}) },
			func(b []byte) error { _, err := netx.DecodeRelease(b); return err }},
		{netx.MsgUpdate, func(d []byte) []byte {
			return netx.AppendUpdate(d, netx.Update{Site: 1, Txn: spec.ID, Elements: elems, Traced: true})
		}, func(b []byte) error { _, err := netx.DecodeUpdate(b); return err }},
		{netx.MsgUpdateAck, func(d []byte) []byte { return netx.AppendUpdateAck(d, netx.UpdateAck{Elements: elems, Snap: snap}) },
			func(b []byte) error { _, err := netx.DecodeUpdateAck(b); return err }},
		{netx.MsgReply, func(d []byte) []byte { return netx.AppendReply(d, netx.Reply{Txn: spec.ID, Snap: snap, Traced: true}) },
			func(b []byte) error { _, err := netx.DecodeReply(b); return err }},
	}
}

// loopbackPair returns a dialed connection and its accepted peer.
func loopbackPair() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	client, err = net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		return nil, nil, a.err
	}
	return client, a.c, nil
}

func (p *prober) netxProbes(cfg probeConfig) error {
	cases := codecCases()
	mix := cfg.mix
	if mix == nil {
		mix = referenceMix
	}
	var weighted, weight float64
	buf := make([]byte, 0, 256)
	for _, c := range cases {
		c := c
		name := "netx.codec:" + netx.MsgName(c.msg)
		ns := p.measure(name, 60_000, func(n int) {
			for i := 0; i < n; i++ {
				buf = c.encode(buf[:0])
				if err := c.decode(buf); err != nil {
					panic(fmt.Sprintf("hybridbench: %s does not round-trip: %v", name, err))
				}
			}
		})
		weighted += mix[c.msg] * ns
		weight += mix[c.msg]
	}
	if weight > 0 {
		p.out["netx.codec_ns_per_frame"] = weighted / weight
	}
	submit := cases[0]
	p.perOp("netx.encode_txn_ns", 400_000, func(n int) {
		for i := 0; i < n; i++ {
			buf = submit.encode(buf[:0])
		}
	})
	payload := submit.encode(nil)
	p.perOp("netx.decode_txn_ns", 100_000, func(n int) {
		for i := 0; i < n; i++ {
			if err := submit.decode(payload); err != nil {
				panic(err)
			}
		}
	})
	if err := p.framePump(payload); err != nil {
		return err
	}
	return p.frameRoundTrip(payload)
}

// framePump measures pipelined one-way Send to a loopback sink: frames per
// second, allocations and wire bytes per frame, and socket writes per frame
// on the sending side.
func (p *prober) framePump(payload []byte) error {
	sp := p.rec.begin("probe:netx.frames_per_s", p.parent)
	defer p.rec.end(sp)
	cn, sn, err := loopbackPair()
	if err != nil {
		return err
	}
	counted := &countingConn{Conn: cn}
	var sendStats netx.Stats
	sender := netx.NewConn(counted, netx.Options{Stats: &sendStats})
	sink := netx.NewConn(sn, netx.Options{})
	var received atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sender.Serve(nil) }()
	go func() { defer wg.Done(); sink.Serve(func(*netx.Conn, netx.Frame) { received.Add(1) }) }()
	defer func() {
		sender.Close()
		sink.Close()
		wg.Wait()
	}()

	n := max(50_000/p.scale, 2000)
	const window = 512 // stay well inside the 1024-frame send queue
	var rates []float64
	var sent int64
	var allocs float64
	for r := 0; r < p.reps; r++ {
		m0, t0 := mallocs(), time.Now()
		for i := 0; i < n; i++ {
			for sent-received.Load() >= window {
				runtime.Gosched()
			}
			if err := sender.Send(netx.MsgSubmit, 0, payload); err != nil {
				return fmt.Errorf("frame pump send: %w", err)
			}
			sent++
		}
		for received.Load() < sent {
			runtime.Gosched()
		}
		rates = append(rates, float64(n)/time.Since(t0).Seconds())
		allocs = float64(mallocs()-m0) / float64(n)
	}
	p.out["netx.frames_per_s"] = median(rates)
	p.out["netx.allocs_per_frame"] = allocs
	p.out["netx.bytes_per_frame"] = float64(sendStats.BytesOut.Load()) / float64(sendStats.FramesOut.Load())
	p.out["netx.writes_per_frame"] = float64(counted.writes.Load()) / float64(sent)
	return nil
}

// frameRoundTrip measures one Call in flight against an echoing peer.
func (p *prober) frameRoundTrip(payload []byte) error {
	sp := p.rec.begin("probe:netx.frame_rt_us", p.parent)
	defer p.rec.end(sp)
	cn, sn, err := loopbackPair()
	if err != nil {
		return err
	}
	caller := netx.NewConn(cn, netx.Options{})
	echo := netx.NewConn(sn, netx.Options{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); caller.Serve(nil) }()
	go func() {
		defer wg.Done()
		echo.Serve(func(c *netx.Conn, f netx.Frame) {
			// Send copies the payload into its frame buffer before returning.
			_ = c.Send(netx.MsgResult, f.ReqID, f.Payload)
		})
	}()
	defer func() {
		caller.Close()
		echo.Close()
		wg.Wait()
	}()
	n := max(3000/p.scale, 50)
	rts := make([]float64, 0, n)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := caller.Call(ctx, netx.MsgSubmit, payload); err != nil {
			return fmt.Errorf("frame round trip: %w", err)
		}
		rts = append(rts, float64(time.Since(t0))/1e3)
	}
	p.out["netx.frame_rt_us"] = median(rts)
	return nil
}
