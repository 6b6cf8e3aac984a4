package hybrid

// The simulator's implementation of the Transport seam: each typed send
// becomes one delivery closure on the star network's link — comm.Network in
// the sequential run, shardNet (parallel.go) in the sharded one — that calls
// the receiving partition's handler with the values the message names. The
// closure is the message; a transaction's input and an update slice ride in
// it by reference, a run never does.

import (
	"fmt"

	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// closureNet is what both simulated star networks offer: fixed-delay FIFO
// links that deliver a callback.
type closureNet interface {
	ToCentral(site int, deliver func())
	ToSite(site int, deliver func())
	MessagesSent() uint64
	MessagesInFlight() uint64
}

// simWire joins the partitions of one engine. It is embedded in the Engine
// by value, so construction allocates nothing for it.
type simWire struct {
	net     closureNet
	sites   []*SiteNode
	central *CentralNode
}

var _ Transport = (*simWire)(nil)

func (w *simWire) Ship(home int, spec *workload.Txn) {
	w.net.ToCentral(home, func() { w.central.OnShip(spec) })
}

func (w *simWire) AuthReq(site int, txn int64, elems []uint32, modes []lock.Mode, snap Snapshot) {
	w.net.ToSite(site, func() { w.sites[site].OnAuthReq(txn, elems, modes, snap) })
}

func (w *simWire) AuthReply(site int, txn int64, nack bool) {
	w.net.ToCentral(site, func() { mustResolve(w.central.OnAuthReply(site, txn, nack), "AuthReply", txn) })
}

func (w *simWire) Release(site int, txn int64, snap Snapshot) {
	w.net.ToSite(site, func() { w.sites[site].OnRelease(txn, snap) })
}

func (w *simWire) Update(site int, txn int64, updates []uint32) {
	w.net.ToCentral(site, func() { w.central.OnUpdate(site, txn, updates) })
}

func (w *simWire) UpdateAck(site int, updates []uint32, snap Snapshot) {
	w.net.ToSite(site, func() { w.sites[site].OnUpdateAck(updates, snap) })
}

func (w *simWire) Reply(home int, txn int64, _ bool, snap Snapshot) {
	w.net.ToSite(home, func() { mustResolve(w.sites[home].OnReply(txn, snap), "Reply", txn) })
}

// mustResolve panics on a message whose transaction id the receiving node did
// not know. A wire may lose, repeat or invent frames; this one delivers each
// send exactly once, so a stray is a simulator bug.
func mustResolve(ok bool, msg string, txn int64) {
	if !ok {
		panic(fmt.Sprintf("hybrid: simulated %s names unknown transaction %d", msg, txn))
	}
}
