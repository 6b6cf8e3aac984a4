package hybrid

// The simulator's implementation of the Transport seam: each typed send
// becomes one delivery closure on the star network's link — comm.Network in
// the sequential run, shardNet (parallel.go) in the sharded one — that calls
// the receiving partition's handler with the arguments the message names.
// Runs and slices ride by pointer; the closure is the message.

import "hybriddb/internal/lock"

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

func (w *simWire) Ship(home int, t *TxnRun) {
	w.net.ToCentral(home, func() { w.central.OnShip(t) })
}

func (w *simWire) AuthReq(site int, t *TxnRun, txn int64, elems []uint32, modes []lock.Mode, snap Snapshot) {
	w.net.ToSite(site, func() { w.sites[site].OnAuthReq(t, txn, elems, modes, snap) })
}

func (w *simWire) AuthReply(site int, t *TxnRun, _ int64, nack bool) {
	w.net.ToCentral(site, func() { w.central.OnAuthReply(t, site, nack) })
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

func (w *simWire) Reply(home int, t *TxnRun, snap Snapshot) {
	w.net.ToSite(home, func() { w.sites[home].OnReply(t, snap) })
}
