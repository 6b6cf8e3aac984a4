package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"hybriddb/internal/cluster"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/netx"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// The live workloads: one central node and two sites booted in this process
// on loopback, driven by the benchmark's own generator. The generator is one
// pacing goroutine and one connection per site; requests go out with
// Conn.Send and come back through the connection's Serve handler, so there
// is no goroutine per request. Every input — transaction specs and the
// open-loop arrival schedule — is generated from the seed before the clock
// starts; the cluster receives only the generated inputs.

// livePlan is one live workload at one seed and length.
type livePlan struct {
	name     string
	cfg      hybrid.Config
	strategy routing.Strategy

	// Phase A, closed loop: each connection keeps `outstanding` requests in
	// flight, issuing the next one from the reply handler.
	outstanding   int
	closedWarm    float64
	closedMeasure float64

	// Phase B, open loop: a Poisson schedule per site at openRate/Sites,
	// each request timed from its due time.
	openRate    float64 // txn/s over all sites
	openWarm    float64
	openMeasure float64

	// predictInSetup runs the simulator's prediction as part of set-up.
	predictInSetup bool
	seed           uint64
}

const liveSites = 2

func livePlanFor(name string, seed uint64, seconds float64) livePlan {
	cfg := cluster.DefaultLiveConfig()
	cfg.Sites = liveSites
	cfg.Seed = seed
	p := livePlan{name: name, strategy: routing.QueueThreshold{Theta: 0}, outstanding: 16, seed: seed}
	switch name {
	case wlLiveWire:
		// Emulated service scaled to microseconds: what remains is the
		// program's own cost per transaction.
		cfg.CommDelay /= 1000
		cfg.InstrPerCall /= 1000
		cfg.InstrOverhead /= 1000
		cfg.IOTimePerCall /= 1000
		cfg.SetupIOTime /= 1000
		cfg.RestartDelay /= 1000
		// The simulator's prediction of this operating point (traced runs)
		// needs no more than a few tens of thousands of transactions.
		cfg.Warmup, cfg.Duration = 2, 20
		p.closedWarm, p.closedMeasure = 0.2*seconds, seconds
		p.openRate = 4000
		p.openWarm, p.openMeasure = 0.1*seconds, seconds
	case wlLiveEmulated:
		// The TestClusterVsSimulator operating point: millisecond-scale
		// emulation, where timers set the response time.
		p.closedWarm, p.closedMeasure = 0.1*seconds, 0.5*seconds
		// The configuration's own arrival rate, 8 txn/s/site. At the 12 the
		// issue proposed, 48 % of transactions take the 130 ms central path
		// and 52 % the 85-100 ms local path, so the median response time
		// sits in the empty gap between the two modes and flips between 100
		// and 130 ms from run to run; at 8 it sits inside the local mode.
		p.openRate = cfg.ArrivalRatePerSite * liveSites
		p.openWarm, p.openMeasure = 0.2*seconds, 1.5*seconds
		p.predictInSetup = true
	default:
		panic("hybridbench: not a live workload: " + name)
	}
	cfg.ArrivalRatePerSite = p.openRate / liveSites
	p.cfg = cfg
	return p
}

// ---- Cluster.

type liveCluster struct {
	central *cluster.Central
	sites   []*cluster.Site
}

func bootCluster(p livePlan) (*liveCluster, error) {
	central, err := cluster.StartCentral(p.cfg, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start central: %w", err)
	}
	c := &liveCluster{central: central}
	for i := 0; i < p.cfg.Sites; i++ {
		s, err := cluster.StartSite(p.cfg, i, central.Addr(), "127.0.0.1:0", p.strategy)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start site %d: %w", i, err)
		}
		c.sites = append(c.sites, s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, s := range c.sites {
		if err := s.WaitReady(ctx); err != nil {
			c.close()
			return nil, fmt.Errorf("site %d never reached central: %w", i, err)
		}
	}
	return c, nil
}

func (c *liveCluster) close() {
	for _, s := range c.sites {
		s.Close()
	}
	c.central.Close()
}

// registrySums adds up, over every node, each series of the nodes' metric
// registries. Snapshot runs the loop-consistent scrape hooks, so the flow
// counters of one node are from one instant of its loop.
func (c *liveCluster) registrySums() (sum map[string]float64, perSite []map[string]float64, central map[string]float64) {
	sum = make(map[string]float64)
	central = c.central.Metrics().Snapshot()
	for k, v := range central {
		sum[k] += v
	}
	for _, s := range c.sites {
		snap := s.Metrics().Snapshot()
		perSite = append(perSite, snap)
		for k, v := range snap {
			sum[k] += v
		}
	}
	return sum, perSite, central
}

// conservationProblems checks the nodes' flow identities, which hold exactly
// at any scrape: per site generated == completed_local + replies_delivered +
// in_flight, and at central ship_arrived == commits + in_system.
func conservationProblems(perSite []map[string]float64, central map[string]float64) []string {
	var out []string
	if got, want := central["central_ship_arrived_total"], central["central_commits_total"]+central["central_in_system"]; got != want {
		out = append(out, fmt.Sprintf("central: ship_arrived %v != commits %v + in_system %v",
			got, central["central_commits_total"], central["central_in_system"]))
	}
	for i, s := range perSite {
		gen := s["site_generated_total"]
		acc := s["site_completed_local_total"] + s["site_replies_delivered_total"] + s["site_in_flight"]
		if gen != acc {
			out = append(out, fmt.Sprintf("site %d: generated %v != completed_local %v + replies_delivered %v + in_flight %v",
				i, gen, s["site_completed_local_total"], s["site_replies_delivered_total"], s["site_in_flight"]))
		}
	}
	return out
}

// ---- Inputs.

// liveInputs are the pre-generated inputs of one connection: a ring of
// encoded transaction specs (far longer than any number of requests in
// flight, so ids never collide while outstanding) and the open-loop due
// times, in nanoseconds from the start of the open-loop phase.
type liveInputs struct {
	payloads [][]byte
	ids      []int64
	openDue  []int64
}

const payloadRing = 1 << 15

func generateInputs(p livePlan) []liveInputs {
	gen := workload.NewGenerator(p.cfg.WorkloadConfig(), p.seed)
	horizon := p.openWarm + p.openMeasure
	in := make([]liveInputs, p.cfg.Sites)
	var spec *workload.Txn
	for site := range in {
		li := &in[site]
		li.payloads = make([][]byte, payloadRing)
		li.ids = make([]int64, payloadRing)
		for k := range li.payloads {
			spec = gen.NextInto(site, spec)
			li.payloads[k] = netx.AppendTxn(nil, spec)
			li.ids[k] = spec.ID
		}
		arrivals := workload.NewArrivals(p.openRate/float64(p.cfg.Sites), p.seed+uint64(site)*0x9E3779B97F4A7C15+1)
		for t := arrivals.Next(); t < horizon; t += arrivals.Next() {
			li.openDue = append(li.openDue, int64(t*1e9))
		}
	}
	return in
}

// ---- Generator.

// countingConn counts the Write calls a netx.Conn issues on its socket
// (traced runs only): writes per frame is the write pump's batching.
type countingConn struct {
	net.Conn
	writes atomic.Uint64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// Reply flags kept per request.
const (
	flagReplied = 1 << iota
	flagShipped
	flagClassB
	flagWrongID
)

// genConn is the generator's side of one site connection. Requests are
// numbered from 0; request k travels with ReqID k+1 and payload k mod ring.
// The per-request arrays are written once per slot — due/sent by whichever
// goroutine issues the request, done/flags by the connection's reader — and
// read only after both have finished.
type genConn struct {
	g      *generator
	site   int
	conn   *netx.Conn
	raw    *countingConn // nil in untraced runs
	in     liveInputs
	served chan struct{} // closed when Serve returns

	due, sent, done []int64 // ns since the generator's epoch
	flags           []uint8

	next        atomic.Int64 // next request number
	outstanding atomic.Int64
	closedUntil atomic.Int64 // the reader re-issues while now < closedUntil
	dead        atomic.Bool  // a send failed: the connection is gone
	stray       atomic.Int64 // frames that match no request
}

type generator struct {
	epoch time.Time
	conns []*genConn
}

func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

// dialGenerator opens one connection per site. capacity bounds the requests
// one connection can issue in the whole run.
func dialGenerator(c *liveCluster, inputs []liveInputs, capacity int, traced bool) (*generator, error) {
	g := &generator{epoch: time.Now()}
	for i, s := range c.sites {
		nc, err := net.DialTimeout("tcp", s.Addr(), 5*time.Second)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dial site %d: %w", i, err)
		}
		gc := &genConn{
			g: g, site: i, in: inputs[i], served: make(chan struct{}),
			due: make([]int64, capacity), sent: make([]int64, capacity),
			done: make([]int64, capacity), flags: make([]uint8, capacity),
		}
		if traced {
			gc.raw = &countingConn{Conn: nc}
			nc = gc.raw
		}
		// The generator's own send queue holds a whole open-loop schedule:
		// after a stall of the host the pacer sends everything overdue in
		// one burst, and netx's default 1024-frame queue would kill the
		// generator's connection (its slow-peer rule) for the host's fault.
		gc.conn = netx.NewConn(nc, netx.Options{SendQueue: len(inputs[i].openDue) + 1024})
		g.conns = append(g.conns, gc)
		go func() {
			defer close(gc.served)
			gc.conn.Serve(gc.onFrame) // returns when the connection closes
		}()
	}
	return g, nil
}

// close tears the connections down and waits for their readers.
func (g *generator) close() {
	for _, gc := range g.conns {
		gc.conn.Close()
		<-gc.served
	}
}

// issue sends the next request, due at the given instant. It reports false
// when the connection can take no more (capacity reached or dead).
func (gc *genConn) issue(due int64) bool {
	if gc.dead.Load() {
		return false
	}
	k := gc.next.Add(1) - 1
	if int(k) >= len(gc.due) {
		gc.next.Add(-1)
		return false
	}
	gc.due[k] = due
	gc.sent[k] = gc.g.now()
	gc.outstanding.Add(1)
	if err := gc.conn.Send(netx.MsgSubmit, uint64(k+1), gc.in.payloads[int(k)%len(gc.in.payloads)]); err != nil {
		// A full send queue kills the connection (netx's slow-peer rule).
		// Everything outstanding on it will never be answered; the tally
		// at the end counts it failed.
		gc.dead.Store(true)
		return false
	}
	return true
}

// onFrame is the connection's Serve handler; it runs on the reader goroutine.
func (gc *genConn) onFrame(_ *netx.Conn, f netx.Frame) {
	now := gc.g.now()
	k := int64(f.ReqID) - 1
	if f.Type != netx.MsgResult || k < 0 || k >= gc.next.Load() || gc.flags[k]&flagReplied != 0 {
		gc.stray.Add(1)
		return
	}
	fl := uint8(flagReplied)
	res, err := netx.DecodeResult(f.Payload)
	if err != nil || res.Txn != gc.in.ids[int(k)%len(gc.in.ids)] {
		fl |= flagWrongID
	}
	if res.Shipped {
		fl |= flagShipped
	}
	if res.ClassB {
		fl |= flagClassB
	}
	gc.done[k] = now
	gc.flags[k] |= fl
	gc.outstanding.Add(-1)
	if now < gc.closedUntil.Load() {
		gc.issue(now)
	}
}

// sleepUntil blocks the pacing goroutine until the generator clock reads t.
// It sleeps in the kernel (nanosleep), not on a Go timer: while the process
// is otherwise idle the Go runtime parks in epoll_wait, whose timeout has
// millisecond granularity, so a time.Sleep-paced generator would send up to
// a millisecond late exactly when the cluster is quiet. A blocking syscall
// gives the goroutine's P away, so the pacer neither spins a core nor keeps
// the runtime awake to fire the cluster's own timers early — it behaves like
// the external client it stands in for.
func (g *generator) sleepUntil(t int64) {
	for {
		d := t - g.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR (runtime preemption signals) just loops
	}
}

// meters is a sample of the process-wide CPU and allocation counters.
type meters struct {
	cpu     float64
	mallocs uint64
}

func readMeters() meters { return meters{cpu: cpuSeconds(), mallocs: mallocs()} }

// maxSegments is the most parts a measured interval is cut into. Throughput,
// CPU per transaction and the response-time statistics are computed per part
// and the median part is reported: this host stalls for tens to hundreds of
// milliseconds several times a minute (a collection over the nodes' span
// buffers, a neighbour on the hypervisor), and one stall multiplies a
// whole-interval p95 or mean while it touches one or two half-second parts in
// twenty. The whole-interval tail is still reported, as a diagnostic.
const maxSegments = 20

// segmentCount returns how many parts to cut n samples into so that each
// holds at least minPer: the largest divisor of maxSegments that allows it
// (the meters are sampled at maxSegments boundaries, so parts must be whole
// groups of those), and 1 when even two parts would be too thin.
func segmentCount(n, minPer int) int {
	for _, k := range []int{20, 10, 5, 4, 2} {
		if n/k >= minPer {
			return k
		}
	}
	return 1
}

// window is the measured interval of one phase: its bounds, for phase A the
// instants the pacer reached each segment boundary and the meters at the
// first and the last of them, and the requests the interval covers, per
// connection [from, to).
type window struct {
	start, end    int64
	edges         []int64 // generator clock, ns
	begin, finish meters
	from, to      []int64
}

// runClosed drives phase A. Each connection is primed with `outstanding`
// requests; from then on its reader issues one request per reply. The
// pacing goroutine only sleeps to the twenty segment boundaries, noting when
// it reached each and reading the meters at the first and the last; in
// between it calls tick every 100 ms (traced runs sample the nodes'
// registries there).
func (g *generator) runClosed(p livePlan, tick func()) window {
	t0 := g.now()
	warmEnd := t0 + int64(p.closedWarm*1e9)
	end := warmEnd + int64(p.closedMeasure*1e9)
	for _, gc := range g.conns {
		gc.closedUntil.Store(end)
	}
	for i := 0; i < p.outstanding; i++ {
		for _, gc := range g.conns {
			gc.issue(g.now())
		}
	}
	w := window{start: warmEnd, end: end}
	for j := 0; j <= maxSegments; j++ {
		boundary := warmEnd + (end-warmEnd)*int64(j)/maxSegments
		for tick != nil && boundary-g.now() > int64(150*time.Millisecond) {
			time.Sleep(100 * time.Millisecond)
			tick()
		}
		g.sleepUntil(boundary)
		switch j {
		case 0:
			w.begin = readMeters()
			for _, gc := range g.conns {
				w.from = append(w.from, gc.next.Load())
			}
		case maxSegments:
			w.finish = readMeters()
		}
		w.edges = append(w.edges, g.now())
	}
	for _, gc := range g.conns {
		w.to = append(w.to, gc.next.Load())
	}
	return w
}

// openStep is one entry of the merged open-loop schedule.
type openStep struct {
	due  int64
	conn int
}

func mergeSchedule(inputs []liveInputs) []openStep {
	var steps []openStep
	for i, in := range inputs {
		for _, d := range in.openDue {
			steps = append(steps, openStep{due: d, conn: i})
		}
	}
	sort.SliceStable(steps, func(a, b int) bool { return steps[a].due < steps[b].due })
	return steps
}

// runOpen drives phase B: the pacing goroutine walks the merged schedule,
// sleeping until each due time and sending regardless of completions.
func (g *generator) runOpen(p livePlan, steps []openStep) window {
	t0 := g.now()
	w := window{start: t0 + int64(p.openWarm*1e9)}
	w.end = w.start + int64(p.openMeasure*1e9)
	for _, gc := range g.conns {
		gc.closedUntil.Store(0)
		w.from = append(w.from, -1)
	}
	for _, st := range steps {
		due := t0 + st.due
		g.sleepUntil(due)
		gc := g.conns[st.conn]
		if due >= w.start && w.from[st.conn] < 0 {
			w.from[st.conn] = gc.next.Load()
		}
		gc.issue(due)
	}
	g.sleepUntil(w.end)
	for i, gc := range g.conns {
		w.to = append(w.to, gc.next.Load())
		if w.from[i] < 0 {
			w.from[i] = w.to[i] // nothing was due inside the window
		}
	}
	return w
}

// drain waits until nothing is outstanding, or the limit passes.
func (g *generator) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		var n int64
		for _, gc := range g.conns {
			if !gc.dead.Load() {
				n += gc.outstanding.Load()
			}
		}
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- Analysis (after the generator's goroutines have finished).

// closedStats summarises phase A. CPU and allocations are over the whole
// interval: a stall adds no CPU time, and the kernel charges CPU by sampling
// at its tick, which is far too coarse for half a second of a mostly idle
// process.
type closedStats struct {
	completed int64
	seconds   float64
	cpu       float64
	mallocs   uint64
	txnPerSec []float64 // per segment
}

func (g *generator) closedStats(w window) closedStats {
	first, last := w.edges[0], w.edges[len(w.edges)-1]
	s := closedStats{seconds: float64(last-first) / 1e9, cpu: w.finish.cpu - w.begin.cpu, mallocs: w.finish.mallocs - w.begin.mallocs}
	perEdge := make([]int64, len(w.edges)-1) // completions between consecutive boundaries
	for _, gc := range g.conns {
		n := gc.next.Load()
		for k := int64(0); k < n; k++ {
			d := gc.done[k]
			if gc.flags[k]&flagReplied == 0 || d < first || d >= last {
				continue
			}
			j := sort.Search(len(perEdge), func(j int) bool { return d < w.edges[j+1] })
			perEdge[j]++
			s.completed++
		}
	}
	// A segment needs about a hundred completions for its rate to mean
	// anything; thinner intervals are cut into fewer, longer segments.
	group := len(perEdge) / segmentCount(int(s.completed), 100)
	for j := 0; j+group <= len(perEdge); j += group {
		var n int64
		for _, c := range perEdge[j : j+group] {
			n += c
		}
		a, b := w.edges[j], w.edges[j+group]
		s.txnPerSec = append(s.txnPerSec, float64(n)/(float64(b-a)/1e9))
	}
	return s
}

// openStats summarises phase B over the requests due inside the window: the
// whole interval's samples, and per-segment statistics (segments by due
// time).
type openStats struct {
	scheduled int
	rtMs      []float64 // whole interval, sorted
	lateUs    []float64 // whole interval, sorted
	meanRtMs  float64   // whole interval
	offered   float64   // scheduled per second of due-time span
	achieved  float64   // the same requests per second of send-time span
	shippedA  int
	localA    int

	segMean, segP50, segP95 []float64 // response time per segment, ms
	segLateP95              []float64 // generator lateness per segment, us
}

func (g *generator) openStats(w window) openStats {
	var s openStats
	var dues, sents []int64
	var segOf []int // segment of each scheduled request, parallel to dues
	// Forty requests is the least a segment's p95 can be read from (two
	// samples beyond it); live-emulated's 240 make five segments, which is
	// what lets the median segment ride out a stall of seconds there too.
	var scheduled int64
	for i := range g.conns {
		scheduled += w.to[i] - w.from[i]
	}
	nseg := segmentCount(int(scheduled), 40)
	segRt := make([][]float64, nseg)
	segLate := make([][]float64, nseg)
	for i, gc := range g.conns {
		for k := w.from[i]; k < w.to[i]; k++ {
			s.scheduled++
			dues = append(dues, gc.due[k])
			sents = append(sents, gc.sent[k])
			seg := int((gc.due[k] - w.start) * int64(nseg) / (w.end - w.start))
			seg = min(max(seg, 0), nseg-1)
			segOf = append(segOf, seg)
			fl := gc.flags[k]
			if fl&flagReplied == 0 {
				continue // counted failed by tally
			}
			rt := float64(gc.done[k]-gc.due[k]) / 1e6
			s.rtMs = append(s.rtMs, rt)
			segRt[seg] = append(segRt[seg], rt)
			if fl&flagClassB == 0 {
				if fl&flagShipped != 0 {
					s.shippedA++
				} else {
					s.localA++
				}
			}
		}
	}
	s.meanRtMs = mean(s.rtMs)
	sort.Float64s(s.rtMs)
	s.lateUs = latenessUs(dues, sents)
	for i, late := range s.lateUs {
		segLate[segOf[i]] = append(segLate[segOf[i]], late)
	}
	sort.Float64s(s.lateUs)
	for seg := range segRt {
		if len(segRt[seg]) == 0 {
			continue
		}
		s.segMean = append(s.segMean, mean(segRt[seg]))
		sort.Float64s(segRt[seg])
		s.segP50 = append(s.segP50, percentileSorted(segRt[seg], 0.50))
		s.segP95 = append(s.segP95, percentileSorted(segRt[seg], 0.95))
		sort.Float64s(segLate[seg])
		s.segLateP95 = append(s.segLateP95, percentileSorted(segLate[seg], 0.95))
	}
	if len(dues) > 1 {
		sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
		sort.Slice(sents, func(a, b int) bool { return sents[a] < sents[b] })
		n := float64(len(dues) - 1)
		if span := dues[len(dues)-1] - dues[0]; span > 0 {
			s.offered = n / (float64(span) / 1e9)
		}
		if span := sents[len(sents)-1] - sents[0]; span > 0 {
			s.achieved = n / (float64(span) / 1e9)
		}
	}
	return s
}

// tally counts every request of the run: attempted, and failed — a send
// error, a connection kill (everything outstanding on it), a reply missing
// after the drain, or a reply carrying the wrong transaction id.
func (g *generator) tally() (attempted, failed int64, problems []string) {
	for _, gc := range g.conns {
		n := gc.next.Load()
		attempted += n
		var missing, wrong int64
		for k := int64(0); k < n; k++ {
			switch fl := gc.flags[k]; {
			case fl&flagReplied == 0:
				missing++
			case fl&flagWrongID != 0:
				wrong++
			}
		}
		failed += missing + wrong
		if gc.dead.Load() {
			problems = append(problems, fmt.Sprintf("site %d connection died: %d requests unanswered", gc.site, missing))
		} else if missing > 0 {
			problems = append(problems, fmt.Sprintf("site %d: %d replies missing after the drain", gc.site, missing))
		}
		if wrong > 0 {
			problems = append(problems, fmt.Sprintf("site %d: %d replies with the wrong transaction id", gc.site, wrong))
		}
		if s := gc.stray.Load(); s > 0 {
			failed += s
			problems = append(problems, fmt.Sprintf("site %d: %d stray frames", gc.site, s))
		}
		if int(n) == len(gc.due) {
			problems = append(problems, fmt.Sprintf("site %d: the generator ran out of its %d request slots, so it stopped offering load", gc.site, n))
		}
	}
	return attempted, failed, problems
}

// ---- One full live run.

// liveRun is everything one boot-drive-drain cycle measured.
type liveRun struct {
	setupSeconds []float64 // one entry per boot cycle
	closed       closedStats
	open         openStats
	openWindow   window
	closedWindow window
	pred         cluster.SimPrediction

	attempted, failed int64
	problems          []string

	// Traced runs only.
	before, afterClosed, afterOpen map[string]float64
	queueDepthMax                  float64
	writes, frames                 uint64
	gen                            *generator // kept for span export
	closedSpan, openSpan           int        // the phases' spans, parents of the request spans
}

func predict(p livePlan) (cluster.SimPrediction, error) {
	return cluster.PredictSim(p.cfg, func() (routing.Strategy, error) { return p.strategy, nil }, 3)
}

// liveSetup is one booted cluster with its generator connected and its
// inputs generated.
type liveSetup struct {
	cluster *liveCluster
	gen     *generator
	inputs  []liveInputs
	pred    cluster.SimPrediction
	seconds float64 // how long the set-up took
}

func (s *liveSetup) close() {
	if s.gen != nil {
		s.gen.close()
	}
	s.cluster.close()
}

// setupLive performs one full set-up: boot, wait ready, generate inputs,
// dial, and (live-emulated) predict. Warm-up is not part of it: it is a
// fixed interval, not work.
func setupLive(p livePlan, traced bool) (*liveSetup, error) {
	t0 := time.Now()
	c, err := bootCluster(p)
	if err != nil {
		return nil, err
	}
	s := &liveSetup{cluster: c, inputs: generateInputs(p)}
	// Capacity: generous multiples of any rate the two-core reference host
	// reaches; a run that exhausts it anyway is reported, not hidden.
	capacity := int(40000*(p.closedWarm+p.closedMeasure)) + 2*len(s.inputs[0].openDue) + 1024
	if s.gen, err = dialGenerator(c, s.inputs, capacity, traced); err != nil {
		s.close()
		return nil, err
	}
	if p.predictInSetup {
		if s.pred, err = predict(p); err != nil {
			s.close()
			return nil, err
		}
	}
	s.seconds = time.Since(t0).Seconds()
	return s, nil
}

// setupCycles is how many times a live run sets up: the first cycles are
// torn down again, the last one is driven. The reported set-up time is the
// median.
const setupCycles = 5

// driveLive sets up `cycles` times, then drives phases A and B on the last
// set-up from the calling goroutine — the generator's one pacing goroutine —
// drains, and checks the outcome.
func driveLive(p livePlan, traced bool, cycles int, rec *recorder, parent int) (*liveRun, error) {
	run := &liveRun{}
	var s *liveSetup
	sp := rec.begin("setup", parent)
	for i := 0; i < cycles; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = setupLive(p, traced); err != nil {
			return nil, err
		}
		run.setupSeconds = append(run.setupSeconds, s.seconds)
	}
	rec.end(sp)
	c, g := s.cluster, s.gen
	run.pred = s.pred
	defer c.close()

	var tick func()
	if traced {
		run.before, _, _ = c.registrySums()
		tick = func() {
			sum, _, _ := c.registrySums()
			if d := sum["net_send_queue_depth"]; d > run.queueDepthMax {
				run.queueDepthMax = d
			}
		}
	}
	run.closedSpan = rec.begin("closed", parent)
	run.closedWindow = g.runClosed(p, tick)
	rec.end(run.closedSpan)
	sp = rec.begin("drain", parent)
	g.drain(5 * time.Second)
	rec.end(sp)
	if traced {
		run.afterClosed, _, _ = c.registrySums()
	}
	run.openSpan = rec.begin("open", parent)
	run.openWindow = g.runOpen(p, mergeSchedule(s.inputs))
	rec.end(run.openSpan)
	sp = rec.begin("drain", parent)
	g.drain(5 * time.Second)
	rec.end(sp)

	sum, perSite, central := c.registrySums()
	run.afterOpen = sum
	if traced {
		for _, gc := range g.conns {
			run.writes += gc.raw.writes.Load()
			run.frames += uint64(gc.next.Load())
		}
	}
	g.close() // joins the readers: the per-request arrays are now quiescent
	run.gen = g
	run.closed = g.closedStats(run.closedWindow)
	run.open = g.openStats(run.openWindow)
	run.attempted, run.failed, run.problems = g.tally()
	run.problems = append(run.problems, conservationProblems(perSite, central)...)
	var generated float64
	for _, s := range perSite {
		generated += s["site_generated_total"]
	}
	if int64(generated) != run.attempted {
		run.problems = append(run.problems, fmt.Sprintf("sites admitted %v transactions, the generator sent %d", generated, run.attempted))
	}
	return run, nil
}
