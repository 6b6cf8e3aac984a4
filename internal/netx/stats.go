package netx

import "sync/atomic"

// Stats aggregates transport-level tallies across every connection that
// shares it (wired in via Options.Stats). All fields are atomics: the read
// and write-pump goroutines update them inline, and an observer (the
// cluster's metrics registry, via GaugeFunc) reads them at scrape time
// without coordination. A nil Stats disables accounting at zero cost.
type Stats struct {
	FramesIn  atomic.Uint64 // frames read
	FramesOut atomic.Uint64 // frames queued to the write pump
	BytesIn   atomic.Uint64 // wire bytes read (length prefix + header + payload)
	BytesOut  atomic.Uint64 // wire bytes queued
	Flushes   atomic.Uint64 // write-pump flushes: FramesOut/Flushes frames left per writev

	SendQueueDepth   atomic.Int64  // frames currently queued, all connections
	ReadDeadlineHits atomic.Uint64 // reads that died on the ReadTimeout deadline
	QueueFullKills   atomic.Uint64 // connections killed by write backpressure
	Connects         atomic.Uint64 // successful dials (Client); first connect included
}
