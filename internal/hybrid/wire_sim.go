package hybrid

// The simulator's implementation of the Transport seam: each typed send
// becomes one Message on the star network's link — comm.NetworkOf in the
// sequential run, shardNet (parallel.go) in the sharded one — delivered to
// the receiving node's Deliver. A transaction's input and the element lists
// ride in the message by reference, a run never does.

import (
	"fmt"

	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// simNet is what both simulated star networks offer: fixed-delay FIFO links
// that carry Messages.
type simNet interface {
	ToCentral(site int, m Message)
	ToSite(site int, m Message)
	MessagesSent() uint64
	MessagesInFlight() uint64
}

// simWire joins the partitions of one engine. It is embedded in the Engine
// by value, so construction allocates nothing for it.
type simWire struct {
	net     simNet
	sites   []*SiteNode
	central *CentralNode
}

var _ Transport = (*simWire)(nil)

func (w *simWire) Ship(home int, spec *workload.Txn) {
	w.net.ToCentral(home, Message{Kind: MsgShip, Site: home, Txn: spec.ID, Spec: spec})
}

func (w *simWire) AuthReq(site int, txn int64, elems []uint32, modes []lock.Mode, snap Snapshot) {
	w.net.ToSite(site, Message{Kind: MsgAuthReq, Site: site, Txn: txn, Elems: elems, Modes: modes, Snap: snap})
}

func (w *simWire) AuthReply(site int, txn int64, nack bool) {
	w.net.ToCentral(site, Message{Kind: MsgAuthReply, Site: site, Txn: txn, NACK: nack})
}

func (w *simWire) Release(site int, txn int64, snap Snapshot) {
	w.net.ToSite(site, Message{Kind: MsgRelease, Site: site, Txn: txn, Snap: snap})
}

func (w *simWire) Update(site int, txn int64, updates []uint32) {
	w.net.ToCentral(site, Message{Kind: MsgUpdate, Site: site, Txn: txn, Elems: updates})
}

func (w *simWire) UpdateAck(site int, updates []uint32, snap Snapshot) {
	w.net.ToSite(site, Message{Kind: MsgUpdateAck, Site: site, Elems: updates, Snap: snap})
}

func (w *simWire) Reply(home int, txn int64, _ bool, snap Snapshot) {
	w.net.ToSite(home, Message{Kind: MsgReply, Site: home, Txn: txn, Snap: snap})
}

// toCentral and toSite are the links' receive functions.
func (w *simWire) toCentral(m Message) { mustResolve(w.central.Deliver(m), m) }
func (w *simWire) toSite(m Message)    { mustResolve(w.sites[m.Site].Deliver(m), m) }

// mustResolve panics on a message the receiving node refused: one naming a
// transaction it did not know. A wire may lose, repeat or invent frames; this
// one delivers each send exactly once, so a stray is a simulator bug.
func mustResolve(ok bool, m Message) {
	if !ok {
		panic(fmt.Sprintf("hybrid: simulated message of kind %d names unknown transaction %d", m.Kind, m.Txn))
	}
}
