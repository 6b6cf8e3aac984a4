package hybrid

import (
	"math"

	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/stats"
)

// metrics accumulates the distributions and series of the Result — response
// times, lock waits, view ages, queue samples — gated by the measurement
// window: nothing is recorded until the warmup period ends. Event counts are
// not kept here but in each partition's obs.Counts. It is an obs.Observer —
// the only one the engine always subscribes — and every value it holds
// arrives over the bus rather than through direct calls from the lifecycle
// layer. Accumulation is partitioned: every event folds into the core of the
// partition whose shard emitted it — the origin site, the central complex
// (core index sites), or the run coordinator (core sites+1, for
// barrier-time samples). In a sharded run each core is therefore written by
// exactly one shard worker, and in the sequential run by the one loop;
// result() merges the cores in the same fixed order in both modes, so the
// assembled Result is bit-identical between them.
type metrics struct {
	enabled bool    // written only at the MeasureStart barrier
	start   float64 // window start time

	seriesBucket float64
	seriesLast   int // index of the window's last bucket
	cores        []metricsCore

	// Response-time histograms are kept per shard group, not per core: the
	// four 600-bucket histograms dominate a core's footprint (~19 KB), and
	// at N=1000 sites per-core histograms would cost ~19 MB of cold state.
	// Histogram buckets are integer counts, so — unlike the Welford and
	// series merges — their merge is order-independent and moving them off
	// the per-partition cores cannot change any Result bit. histGroup maps a
	// core to its group (the owning shard in a sharded run, group 0
	// sequentially); each group's set is allocated lazily on first record,
	// by the one worker that owns the group.
	hists     []*histSet
	histGroup []int32
}

// histSet is one shard group's response-time histograms.
type histSet struct {
	rtHist     *stats.Histogram
	histLocalA *stats.Histogram
	histShipA  *stats.Histogram
	histClassB *stats.Histogram
}

func newHistSet() *histSet {
	return &histSet{
		rtHist:     stats.NewHistogram(0, 60, 600),
		histLocalA: stats.NewHistogram(0, 60, 600),
		histShipA:  stats.NewHistogram(0, 60, 600),
		histClassB: stats.NewHistogram(0, 60, 600),
	}
}

// metricsCore is one partition's accumulator set — compact (no histogram
// arrays) so 1000-site runs keep every hot core cache-resident.
type metricsCore struct {
	// Response times by kind. rtLocalA doubles as the per-site local-commit
	// stat for site cores (every local commit of site i lands in core i).
	rtAll      stats.Welford
	rtLocalA   stats.Welford
	rtShippedA stats.Welford
	rtClassB   stats.Welford

	// Lock waits (site cores and the central core) and the staleness of the
	// central-state view at each routing decision (site cores).
	lockWait stats.Welford
	viewAge  stats.Welford

	// 1 Hz queue-length samples (coordinator core only).
	centralQueue stats.Welford
	localQueue   stats.Welford

	// Time-series accumulation (Config.SeriesBucket > 0): completed
	// response times (site cores) and the 1 Hz queue-length samples
	// (coordinator core) fold into the same bucket grid, merged elementwise
	// at result time.
	seriesSum    []float64
	seriesCount  []uint64
	seriesQSumC  []float64 // central queue-length sample sums per bucket
	seriesQSumL  []float64 // mean-local queue-length sample sums per bucket
	seriesQCount []uint64  // queue samples per bucket
}

// newMetrics sizes the series grid to cover a measurement window of the
// given length: ceil(window/bucket) buckets.
func newMetrics(bucket, window float64, sites int) *metrics {
	m := &metrics{
		seriesBucket: bucket,
		cores:        make([]metricsCore, sites+2),
		hists:        make([]*histSet, 1),
		histGroup:    make([]int32, sites+2),
	}
	if bucket > 0 {
		m.seriesLast = int(math.Ceil(window/bucket)) - 1
	}
	return m
}

// setHistGroups re-homes the histogram sets for a sharded run: core i's
// histograms live in the group of the shard that writes core i. Called from
// setupRunMode before any event executes. The central and coordinator cores
// map to shard 0 (the central complex's shard; the coordinator core never
// records response times).
func (m *metrics) setHistGroups(shardOf []int, nShards int) {
	m.hists = make([]*histSet, nShards)
	for i, sh := range shardOf {
		m.histGroup[i] = int32(sh)
	}
	m.histGroup[len(m.histGroup)-2] = 0
	m.histGroup[len(m.histGroup)-1] = 0
}

// histFor returns the (lazily allocated) histogram set of a core's group.
// Only the worker owning the group ever calls this for its cores, so the
// lazy initialization is single-writer.
func (m *metrics) histFor(core int) *histSet {
	g := m.histGroup[core]
	h := m.hists[g]
	if h == nil {
		h = newHistSet()
		m.hists[g] = h
	}
	return h
}

// coreIndex routes an event to its partition's core: coordinator events
// (barrier-time samples) to the last core, central-complex events
// (Site < 0) to the second-to-last, everything else to the origin site's.
func (m *metrics) coreIndex(ev obs.Event) int {
	if ev.Kind == obs.QueueSample {
		return len(m.cores) - 1
	}
	if ev.Site < 0 {
		return len(m.cores) - 2
	}
	return ev.Site
}

// OnEvent implements obs.Observer: lifecycle events fold into the emitting
// partition's core; protocol-detail events are ignored. In a sharded run
// this is called concurrently by the shard workers, which is safe because
// coreIndex routes every event to a core only its own shard writes, and the
// enabled/start gate is written exclusively at the MeasureStart barrier.
func (m *metrics) OnEvent(ev obs.Event) {
	if ev.Kind == obs.MeasureStart {
		m.enabled = true
		m.start = ev.At
		return
	}
	if !m.enabled {
		return
	}
	idx := m.coreIndex(ev)
	c := &m.cores[idx]
	switch ev.Kind {
	case obs.TxnArrive:
		if !ev.ClassB {
			c.viewAge.Add(ev.Value)
		}
	case obs.TxnLocalCommit:
		c.rtAll.Add(ev.Value)
		c.rtLocalA.Add(ev.Value)
		h := m.histFor(idx)
		h.rtHist.Add(ev.Value)
		h.histLocalA.Add(ev.Value)
		m.recordSeries(c, ev.At, ev.Value)
	case obs.TxnReply:
		c.rtAll.Add(ev.Value)
		h := m.histFor(idx)
		h.rtHist.Add(ev.Value)
		m.recordSeries(c, ev.At, ev.Value)
		if ev.ClassB {
			c.rtClassB.Add(ev.Value)
			h.histClassB.Add(ev.Value)
		} else {
			c.rtShippedA.Add(ev.Value)
			h.histShipA.Add(ev.Value)
		}
	case obs.LockWaitEnd:
		c.lockWait.Add(ev.Value)
	case obs.QueueSample:
		c.centralQueue.Add(ev.Value)
		c.localQueue.Add(ev.Aux)
		m.recordQueueSeries(c, ev.At, ev.Value, ev.Aux)
	}
}

// seriesIndex maps a window time to its bucket, or -1 when the series is
// disabled or the time precedes the measurement window. A time at the
// horizon itself (a queue sample or completion at exactly the window's end)
// folds into the last bucket rather than opening one past the window.
func (m *metrics) seriesIndex(now float64) int {
	// The pre-window guard must precede the division: int() truncates toward
	// zero, so a time just before the window would otherwise fold into
	// bucket 0 instead of being rejected.
	if m.seriesBucket <= 0 || now < m.start {
		return -1
	}
	return min(int((now-m.start)/m.seriesBucket), m.seriesLast)
}

// recordSeries adds a completed response time to its time bucket.
func (m *metrics) recordSeries(c *metricsCore, now, rt float64) {
	idx := m.seriesIndex(now)
	if idx < 0 {
		return
	}
	for len(c.seriesSum) <= idx {
		c.seriesSum = append(c.seriesSum, 0)
		c.seriesCount = append(c.seriesCount, 0)
	}
	c.seriesSum[idx] += rt
	c.seriesCount[idx]++
}

// recordQueueSeries folds one 1 Hz queue-length observation into its bucket.
func (m *metrics) recordQueueSeries(c *metricsCore, now, central, local float64) {
	idx := m.seriesIndex(now)
	if idx < 0 {
		return
	}
	for len(c.seriesQSumC) <= idx {
		c.seriesQSumC = append(c.seriesQSumC, 0)
		c.seriesQSumL = append(c.seriesQSumL, 0)
		c.seriesQCount = append(c.seriesQCount, 0)
	}
	c.seriesQSumC[idx] += central
	c.seriesQSumL[idx] += local
	c.seriesQCount[idx]++
}

// mergeInto folds one core's accumulators into the aggregate. The caller
// merges cores in a fixed order (0..sites+1), which both run modes share —
// the floating-point results of the Welford and series merges depend on
// that order, so keeping it fixed is part of the bit-exactness contract.
func (c *metricsCore) mergeInto(agg *metricsCore) {
	agg.rtAll.Merge(&c.rtAll)
	agg.rtLocalA.Merge(&c.rtLocalA)
	agg.rtShippedA.Merge(&c.rtShippedA)
	agg.rtClassB.Merge(&c.rtClassB)
	agg.lockWait.Merge(&c.lockWait)
	agg.viewAge.Merge(&c.viewAge)
	agg.centralQueue.Merge(&c.centralQueue)
	agg.localQueue.Merge(&c.localQueue)
	mergeSeriesF(&agg.seriesSum, c.seriesSum)
	mergeSeriesU(&agg.seriesCount, c.seriesCount)
	mergeSeriesF(&agg.seriesQSumC, c.seriesQSumC)
	mergeSeriesF(&agg.seriesQSumL, c.seriesQSumL)
	mergeSeriesU(&agg.seriesQCount, c.seriesQCount)
}

func mergeSeriesF(dst *[]float64, src []float64) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	for i, v := range src {
		(*dst)[i] += v
	}
}

func mergeSeriesU(dst *[]uint64, src []uint64) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	for i, v := range src {
		(*dst)[i] += v
	}
}

// result assembles the run's Result from the partitions' event counts, the
// metrics observer, the site layer's utilization accounting, and the
// network counters. It merges the per-partition cores into one aggregate in
// fixed order; both run modes take exactly this path, so a sequential and a
// sharded run of the same configuration produce bit-identical Results.
func (e *Engine) result() Result {
	// Both run modes leave every clock exactly at the horizon.
	window := e.horizon - e.m.start
	if !e.m.enabled || window <= 0 {
		window = 0
	}
	var n obs.Counts // the window's events, summed over partitions
	for _, ls := range e.sites {
		ls.addWindow(&n)
	}
	e.central.addWindow(&n)
	agg := &metricsCore{}
	for i := range e.m.cores {
		e.m.cores[i].mergeInto(agg)
	}
	// Histogram sets merge across shard groups in index order. Bucket
	// tallies are integers, so this merge is order-independent — the fixed
	// order is just hygiene.
	aggH := newHistSet()
	for _, h := range e.m.hists {
		if h == nil {
			continue
		}
		aggH.rtHist.Merge(h.rtHist)
		aggH.histLocalA.Merge(h.histLocalA)
		aggH.histShipA.Merge(h.histShipA)
		aggH.histClassB.Merge(h.histClassB)
	}
	r := Result{
		Strategy:              e.strategy.Name(),
		Window:                window,
		CompletedLocalA:       agg.rtLocalA.Count(),
		CompletedShippedA:     agg.rtShippedA.Count(),
		CompletedClassB:       agg.rtClassB.Count(),
		MeanRT:                agg.rtAll.Mean(),
		MeanRTLocalA:          agg.rtLocalA.Mean(),
		MeanRTShippedA:        agg.rtShippedA.Mean(),
		MeanRTClassB:          agg.rtClassB.Mean(),
		P95RT:                 aggH.rtHist.Quantile(0.95),
		P95RTLocalA:           aggH.histLocalA.Quantile(0.95),
		P95RTShippedA:         aggH.histShipA.Quantile(0.95),
		P95RTClassB:           aggH.histClassB.Quantile(0.95),
		RTPercentiles:         percentilesOf(aggH.rtHist),
		RTPercentilesLocalA:   percentilesOf(aggH.histLocalA),
		RTPercentilesShippedA: percentilesOf(aggH.histShipA),
		RTPercentilesClassB:   percentilesOf(aggH.histClassB),
		ClipAll:               clipOf(aggH.rtHist),
		ClipLocalA:            clipOf(aggH.histLocalA),
		ClipShippedA:          clipOf(aggH.histShipA),
		ClipClassB:            clipOf(aggH.histClassB),
		AbortsDeadlockLocal:   n[obs.AbortDeadlockLocal],
		AbortsDeadlockCentral: n[obs.AbortDeadlockCentral],
		AbortsLocalSeized:     n[obs.AbortLocalSeized],
		AbortsCentralNACK:     n[obs.AbortCentralNACK],
		AbortsCentralInval:    n[obs.AbortCentralInval],
		ColdFetches:           n[obs.ColdFetch],
		MeanLockWait:          agg.lockWait.Mean(),
		MeanCentralQueue:      agg.centralQueue.Mean(),
		MeanLocalQueue:        agg.localQueue.Mean(),
		MeanViewAge:           agg.viewAge.Mean(),
		AuthRounds:            n[obs.AuthRound],
		MessagesSent:          e.wire.net.MessagesSent(),
	}
	r.Generated, r.Completed, r.InFlightShip, r.InFlightReply = e.flow()
	for _, ls := range e.sites {
		r.InSystemAtEnd += uint64(ls.inSystem)
	}
	r.InSystemAtEnd += uint64(e.central.inSystem)
	if window > 0 {
		r.Throughput = float64(agg.rtAll.Count()) / window
		perSite, mean, max := siteUtilizations(e.sites, window)
		r.PerSite = make([]SiteStats, len(e.sites))
		for i := range e.sites {
			r.PerSite[i] = SiteStats{
				Site:            i,
				Utilization:     perSite[i],
				CompletedLocalA: e.m.cores[i].rtLocalA.Count(),
				MeanRTLocalA:    e.m.cores[i].rtLocalA.Mean(),
			}
		}
		r.UtilLocalMean = mean
		r.UtilLocalMax = max
		r.UtilCentral = (e.central.cpu.BusyTime() - e.central.busyAtWarmup) / window
	}
	if d := n[obs.TxnArrive] + n[obs.ArriveShipA]; d > 0 {
		r.ShipFraction = float64(n[obs.ArriveShipA]) / float64(d)
	}
	for i := range max(len(agg.seriesCount), len(agg.seriesQCount)) {
		b := RTBucket{Start: float64(i) * e.m.seriesBucket}
		if i < len(agg.seriesCount) {
			b.Completions = agg.seriesCount[i]
		}
		if b.Completions > 0 {
			b.MeanRT = agg.seriesSum[i] / float64(b.Completions)
		}
		if i < len(agg.seriesQCount) {
			b.QueueSamples = agg.seriesQCount[i]
		}
		if b.QueueSamples > 0 {
			b.MeanCentralQueue = agg.seriesQSumC[i] / float64(b.QueueSamples)
			b.MeanLocalQueue = agg.seriesQSumL[i] / float64(b.QueueSamples)
		}
		r.RTSeries = append(r.RTSeries, b)
	}
	if e.env.cfg.CaptureHistograms {
		r.Histograms = &ResultHistograms{
			All:      aggH.rtHist.Dump(),
			LocalA:   aggH.histLocalA.Dump(),
			ShippedA: aggH.histShipA.Dump(),
			ClassB:   aggH.histClassB.Dump(),
		}
		// The dumps' exact means must come from the per-core Welfords, not
		// the histograms' own accumulators: the histogram sets are partitioned
		// per shard group, so their internal float means depend on the shard
		// count, while the core Welfords see identical per-partition
		// accumulation and the same fixed merge order in every run mode.
		r.Histograms.All.Mean = agg.rtAll.Mean()
		r.Histograms.LocalA.Mean = agg.rtLocalA.Mean()
		r.Histograms.ShippedA.Mean = agg.rtShippedA.Mean()
		r.Histograms.ClassB.Mean = agg.rtClassB.Mean()
	}
	return r
}

// percentilesOf reads the headline quantiles off a response-time histogram.
func percentilesOf(h *stats.Histogram) Percentiles {
	return Percentiles{
		P50: h.Quantile(0.50),
		P90: h.Quantile(0.90),
		P95: h.Quantile(0.95),
		P99: h.Quantile(0.99),
	}
}

// clipOf reads a histogram's out-of-range tallies.
func clipOf(h *stats.Histogram) HistClip {
	return HistClip{Under: h.Under(), Over: h.Over()}
}

// Result is the outcome of one simulation run.
type Result struct {
	Strategy string  // strategy name
	Window   float64 // measured simulated seconds

	// Completions within the window.
	CompletedLocalA   uint64
	CompletedShippedA uint64
	CompletedClassB   uint64

	// Mean response times (seconds).
	MeanRT         float64 // all classes, the paper's headline metric
	MeanRTLocalA   float64
	MeanRTShippedA float64
	MeanRTClassB   float64
	P95RT          float64
	P95RTLocalA    float64
	P95RTShippedA  float64
	P95RTClassB    float64

	// Full percentile sets per response-time histogram (P95 repeats the
	// P95* fields above, kept for compatibility).
	RTPercentiles         Percentiles
	RTPercentilesLocalA   Percentiles
	RTPercentilesShippedA Percentiles
	RTPercentilesClassB   Percentiles

	// Out-of-range mass per response-time histogram. A nonzero Over means
	// responses exceeded the 60 s histogram ceiling, so the percentile
	// estimates above are clipped underestimates — saturated runs used to
	// hide this silently.
	ClipAll      HistClip
	ClipLocalA   HistClip
	ClipShippedA HistClip
	ClipClassB   HistClip

	Throughput float64 // completed transactions per second (all classes)

	// ShipFraction is the fraction of class A transactions routed to the
	// central site during the window (Fig 4.3 / 4.6).
	ShipFraction float64

	// Aborts by cause within the window.
	AbortsDeadlockLocal   uint64
	AbortsDeadlockCentral uint64
	AbortsLocalSeized     uint64
	AbortsCentralNACK     uint64
	AbortsCentralInval    uint64

	// ColdFetches counts central-path calls that paid the partial-
	// replication fetch delay within the window (Config.CentralHotFraction
	// below 1).
	ColdFetches uint64

	// Utilizations over the window.
	UtilLocalMean float64 // mean over local sites
	UtilLocalMax  float64
	UtilCentral   float64

	MeanLockWait float64 // mean duration of a blocking lock wait
	// Sampled at 1 Hz over the window: the CPU queue lengths the
	// queue-length strategies act on.
	MeanCentralQueue float64
	MeanLocalQueue   float64 // averaged over sites
	// MeanViewAge is how stale the arrival site's view of the central
	// state was at routing-decision time (0 under FeedbackIdeal).
	MeanViewAge  float64
	AuthRounds   uint64 // authentication rounds executed
	MessagesSent uint64 // network messages in the whole run

	// PerSite breaks utilization and local completions down by site —
	// informative under skewed SiteRates.
	PerSite []SiteStats

	// RTSeries is the mean response time and queue lengths per time bucket
	// over the window (Config.SeriesBucket > 0) — the adaptation transient
	// under load fluctuations.
	RTSeries []RTBucket

	// Histograms holds full response-time histogram dumps, attached only
	// when Config.CaptureHistograms is set (run-manifest export); nil
	// otherwise so the default path allocates nothing for them.
	Histograms *ResultHistograms

	// Totals for conservation checking: every generated transaction is, at
	// the horizon, either completed, still resident at a site or the central
	// complex, or in flight on the network. The correctness harness
	// (internal/simtest) enforces
	// Generated == Completed + InSystemAtEnd + InFlightShip + InFlightReply.
	Generated uint64 // transactions generated in the whole run
	Completed uint64 // transactions completed in the whole run
	// InSystemAtEnd counts transactions still resident (any phase) at local
	// sites or the central complex when the run's horizon was reached.
	InSystemAtEnd uint64
	// InFlightShip counts shipped inputs still travelling to the central
	// site at the horizon; InFlightReply counts completion replies still
	// travelling back to their origin.
	InFlightShip  uint64
	InFlightReply uint64
}

// Percentiles summarises one response-time histogram (seconds).
type Percentiles struct {
	P50 float64
	P90 float64
	P95 float64
	P99 float64
}

// HistClip counts observations outside a histogram's bucketed range.
type HistClip struct {
	Under uint64
	Over  uint64
}

// ResultHistograms carries the four response-time histogram dumps of a run.
type ResultHistograms struct {
	All      stats.HistogramDump
	LocalA   stats.HistogramDump
	ShippedA stats.HistogramDump
	ClassB   stats.HistogramDump
}

// RTBucket is one time bucket of the response-time and queue-length series.
type RTBucket struct {
	Start       float64 // seconds since the measurement window opened
	MeanRT      float64
	Completions uint64
	// Queue-length samples (1 Hz) folded into this bucket.
	QueueSamples     uint64
	MeanCentralQueue float64
	MeanLocalQueue   float64
}

// SiteStats is the per-site breakdown of a run.
type SiteStats struct {
	Site            int
	Utilization     float64 // CPU utilization over the window
	CompletedLocalA uint64  // class A transactions committed locally
	MeanRTLocalA    float64 // their mean response time
}

// TotalAborts sums all abort causes.
func (r Result) TotalAborts() uint64 {
	return r.AbortsDeadlockLocal + r.AbortsDeadlockCentral +
		r.AbortsLocalSeized + r.AbortsCentralNACK + r.AbortsCentralInval
}
