package hybrid

// The simulator's Sender: each Message goes onto its direction's link of the
// star network — comm.NetworkOf in the sequential run, shardNet
// (parallel.go) in the sharded one — and is delivered to the receiving
// node's Deliver. A transaction's input and the element lists ride in the
// message by reference, a run never does.

import "fmt"

// simNet is what both simulated star networks offer: fixed-delay FIFO links
// that carry Messages.
type simNet interface {
	ToCentral(site int, m Message)
	ToSite(site int, m Message)
	MessagesSent() uint64
}

// simWire joins the partitions of one engine. It is embedded in the Engine
// by value, so construction allocates nothing for it.
type simWire struct {
	net     simNet
	sites   []*SiteNode
	central *CentralNode
}

// Send puts m on the link between central and the site it names.
func (w *simWire) Send(m Message) {
	if m.Kind.Up() {
		w.net.ToCentral(m.Site, m)
	} else {
		w.net.ToSite(m.Site, m)
	}
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
