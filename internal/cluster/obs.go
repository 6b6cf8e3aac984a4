package cluster

// Observability plumbing shared by the live nodes: per-message-type wire
// counters, wire-error tallies, transport-stat gauges, and the
// loop-consistent scrape hook that makes the conservation invariant
// (submitted == completed + in-flight) exactly checkable from a /metrics
// scrape. Nodes keep their existing loop-confined stats structs as the
// source of truth; at scrape time one closure posted onto the event loop
// mirrors the whole snapshot into the registry, so every sample a scrape
// sees came from the same instant of loop time.

import (
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/metrics"
)

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

// counterTo advances a mirrored counter to the loop-consistent value v.
// Only the (serialized) scrape hook writes these counters, and loop
// counters are monotone, so the delta is never negative.
func counterTo(c *metrics.Counter, v uint64) { c.Add(v - c.Value()) }

// mirrorOnLoop registers a scrape hook that runs fn on the node's loop and
// waits for it, so everything fn mirrors into the registry is one
// consistent loop-time snapshot. If the loop is stopped the hook is a
// no-op and the last mirrored values stand.
func mirrorOnLoop(reg *metrics.Registry, post func(func()) bool, fn func()) {
	reg.OnScrape(func() {
		done := make(chan struct{})
		if !post(func() {
			defer close(done)
			fn()
		}) {
			return
		}
		<-done
	})
}
