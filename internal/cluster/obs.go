package cluster

// Observability plumbing shared by the live nodes: per-message-type wire
// counters, wire-error tallies, transport-stat gauges, the table naming the
// node's event counts, the node's distribution tally, and the loop-consistent
// scrape hook that makes the conservation invariant (submitted == completed +
// in-flight) exactly checkable from a /metrics scrape. The node's obs.Counts
// — the count table its partition keeps, as in the simulator — and its
// distTally over the rows of obs.Dists are the source of truth; at scrape
// time one closure posted onto the event loop mirrors both and the node's
// state gauges into the registry, so every sample a scrape sees came from the
// same instant of loop time.

import (
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/stats"
)

// countSeries names one of a node's event counts in its registry.
type countSeries struct {
	name, help string
	labels     []metrics.Label
	count      func(*obs.Counts) uint64
}

// slot reads the count of one kind.
func slot(k obs.Kind) func(*obs.Counts) uint64 {
	return func(c *obs.Counts) uint64 { return c[k] }
}

func label(name, value string) []metrics.Label { return []metrics.Label{metrics.L(name, value)} }

// The count table: every counter a site or the central node publishes.
var (
	siteCounts = []countSeries{
		{"site_generated_total", "transactions submitted to this site", nil, (*obs.Counts).Arrivals},
		{"site_completed_local_total", "transactions committed on the local path", nil, slot(obs.TxnLocalCommit)},
		{"site_replies_delivered_total", "shipped-transaction completions delivered to load generators", nil, slot(obs.TxnReply)},
		{"site_route_decisions_total", "routing decisions by outcome", label("route", "local"), slot(obs.TxnArrive)},
		{"site_route_decisions_total", "routing decisions by outcome", label("route", "ship"), slot(obs.ArriveShipA)},
		{"site_route_decisions_total", "routing decisions by outcome", label("route", "ship_b"), slot(obs.ArriveB)},
		{"site_aborts_total", "local aborts by cause", label("cause", "seized"), slot(obs.AbortLocalSeized)},
		{"site_aborts_total", "local aborts by cause", label("cause", "deadlock"), slot(obs.AbortDeadlockLocal)},
	}
	centralCounts = []countSeries{
		{"central_ship_arrived_total", "shipped transactions arrived", nil, slot(obs.ShipArrive)},
		{"central_commits_total", "central commits (each sends its completion reply)", nil, slot(obs.TxnCentralCommit)},
		{"central_auth_rounds_total", "authentication rounds started", nil, slot(obs.AuthRound)},
		{"central_updates_applied_total", "site update batches applied", nil, slot(obs.UpdateApplied)},
		{"central_cold_fetch_total", "cold-element fetches paid under partial replication", nil, slot(obs.ColdFetch)},
		{"central_aborts_total", "central aborts by cause", label("cause", "nack"), slot(obs.AbortCentralNACK)},
		{"central_aborts_total", "central aborts by cause", label("cause", "invalidated"), slot(obs.AbortCentralInval)},
		{"central_aborts_total", "central aborts by cause", label("cause", "deadlock"), slot(obs.AbortDeadlockCentral)},
	}
)

// distTally is one partition's distribution table: the moments of every row
// of obs.Dists and the histograms of the rows that keep one, folded from the
// partition's bus events as the simulator's metrics observer folds them. A
// live node subscribes its tally to its bus, so it is written on the loop.
type distTally struct {
	moments obs.Moments
	hists   *obs.RTHists
}

func newDistTally() *distTally { return &distTally{hists: obs.NewRTHists()} }

// OnEvent implements obs.Observer.
func (d *distTally) OnEvent(ev obs.Event) {
	s, n := obs.Samples(ev)
	for _, x := range s[:n] {
		d.moments[x.Dist].Add(x.Value)
		if h := d.hists[x.Dist]; h != nil {
			h.Add(x.Value)
		}
	}
}

// wireMetrics counts frames per message type and direction, plus decode and
// delivery errors by kind. The counters are plain atomics bumped inline on
// the read and send paths.
type wireMetrics struct {
	reg *metrics.Registry
	in  [netx.MsgHelloAck + 1]*metrics.Counter
	out [netx.MsgHelloAck + 1]*metrics.Counter
}

func newWireMetrics(reg *metrics.Registry) *wireMetrics {
	w := &wireMetrics{reg: reg}
	for t := netx.MsgHello; t <= netx.MsgHelloAck; t++ {
		w.in[t] = reg.Counter("wire_msgs_in_total", "inbound frames by message type", metrics.L("type", netx.MsgName(t)))
		w.out[t] = reg.Counter("wire_msgs_out_total", "outbound frames by message type", metrics.L("type", netx.MsgName(t)))
	}
	return w
}

// In counts one inbound frame of type t.
func (w *wireMetrics) In(t byte) {
	if int(t) < len(w.in) && w.in[t] != nil {
		w.in[t].Inc()
	}
}

// Out counts one outbound frame of type t.
func (w *wireMetrics) Out(t byte) {
	if int(t) < len(w.out) && w.out[t] != nil {
		w.out[t].Inc()
	}
}

// Error counts one wire error of the given kind (bad-ship, stray-reply,
// send, ...). Error paths are cold, so the registry lookup per call is
// fine.
func (w *wireMetrics) Error(kind string) {
	w.reg.Counter("wire_errors_total", "wire errors by kind (decode failures, stray or dropped messages, send errors)",
		metrics.L("type", kind)).Inc()
}

// registerNetStats exposes a netx.Stats as gauges read at scrape time.
func registerNetStats(reg *metrics.Registry, ns *netx.Stats) {
	u := func(f func() uint64) func() float64 { return func() float64 { return float64(f()) } }
	reg.GaugeFunc("net_frames_in", "frames read from all connections", u(ns.FramesIn.Load))
	reg.GaugeFunc("net_frames_out", "frames queued to write pumps", u(ns.FramesOut.Load))
	reg.GaugeFunc("net_flushes", "write-pump flushes; net_frames_out over this is frames per writev", u(ns.Flushes.Load))
	reg.GaugeFunc("net_bytes_in", "wire bytes read", u(ns.BytesIn.Load))
	reg.GaugeFunc("net_bytes_out", "wire bytes queued", u(ns.BytesOut.Load))
	reg.GaugeFunc("net_send_queue_depth", "frames sitting in write-pump queues right now", func() float64 {
		return float64(ns.SendQueueDepth.Load())
	})
	reg.GaugeFunc("net_read_deadline_hits", "reads that died on the read deadline", u(ns.ReadDeadlineHits.Load))
	reg.GaugeFunc("net_queue_full_kills", "connections killed by write backpressure", u(ns.QueueFullKills.Load))
	reg.GaugeFunc("net_connects", "successful uplink dials (reconnects after the first)", u(ns.Connects.Load))
}

// mirrorOnLoop registers a counter per row of the node's count table, a
// series per row of obs.Dists the node's tier emits (named prefix+Series: a
// histogram or a summary), and one scrape hook that runs on the node's loop
// and waits for it: the hook advances every counter to the node's counts,
// sets every distribution from the node's tally, and then sets the state
// gauges, so everything a scrape sees is one consistent loop-time snapshot.
// Only the (serialized) hook writes these counters and counts are monotone,
// so each delta is never negative. If the loop is stopped the hook is a
// no-op and the last mirrored values stand.
func (sh *shell) mirrorOnLoop(table []countSeries, tier obs.Emitter, prefix string, counts func() obs.Counts, gauges func()) {
	sh.counts = counts
	counters := make([]*metrics.Counter, len(table))
	for i, row := range table {
		counters[i] = sh.reg.Counter(row.name, row.help, row.labels...)
	}
	var dists [obs.NumDists]*metrics.Distribution // nil where the tier publishes no series
	for r, row := range obs.Dists {
		if row.From&tier == 0 || row.Series == "" {
			continue
		}
		var labels []metrics.Label
		if row.Route != "" {
			labels = label("route", row.Route)
		}
		register := sh.reg.Summary
		if row.Hist {
			register = sh.reg.Histogram
		}
		dists[r] = register(prefix+row.Series, row.Help, labels...)
	}
	sh.reg.OnScrape(func() {
		done := make(chan struct{})
		if !sh.loop.Post(func() {
			defer close(done)
			c := counts()
			for i, row := range table {
				counters[i].Add(row.count(&c) - counters[i].Value())
			}
			for r, dist := range dists {
				if dist == nil {
					continue
				}
				w := &sh.dists.moments[r]
				d := stats.HistogramDump{Count: w.Count(), Mean: w.Mean()}
				if h := sh.dists.hists[r]; h != nil {
					d = h.Dump()
				}
				dist.Set(d, w.Mean()*float64(w.Count()))
			}
			gauges()
		}) {
			return
		}
		<-done
	})
}

// Stats returns the node's event counts, read on its loop (zero after
// Close).
func (sh *shell) Stats() obs.Counts {
	ch := make(chan obs.Counts, 1)
	if !sh.loop.Post(func() { ch <- sh.counts() }) {
		return obs.Counts{}
	}
	return <-ch
}
