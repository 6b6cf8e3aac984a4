// Package comm models the long-haul communications network between the
// distributed sites and the central complex: point-to-point links with a
// fixed one-way delay. Deliveries on a link are FIFO — the protocol of §2
// requires that the asynchronous update messages from a local site are
// processed at the central site in the order they were originated, and a
// fixed-delay link preserves order by construction (the kernel breaks
// same-instant ties in scheduling order).
//
// A link carries values of any type M to one receive function. The func()
// instance (Link, Network) is a link whose messages are their own delivery
// callbacks.
package comm

import (
	"fmt"

	"hybriddb/internal/sim"
)

// LinkOf is a unidirectional channel with fixed propagation delay that hands
// each message to its receive function.
type LinkOf[M any] struct {
	simulator *sim.Simulator
	delay     float64
	recv      func(M)
	vet       func(M) // nil, or a check every message must pass at Send

	sent      uint64
	delivered uint64

	// pending holds the in-flight messages: Send pushes the message and
	// schedules deliverFn (bound once at construction), which pops the front.
	// Matching pops to messages needs no per-message closure because the
	// pairing is positional — every delivery event sits exactly delay ahead
	// of its send and the kernel breaks same-instant ties in scheduling
	// order, so delivery events fire in send order.
	pending   Ring[M]
	deliverFn func()
}

// Link is a link whose messages are their delivery callbacks.
type Link = LinkOf[func()]

// NewLinkOf returns a link with the given one-way delay in seconds that
// delivers every message to recv.
func NewLinkOf[M any](s *sim.Simulator, delay float64, recv func(M)) *LinkOf[M] {
	if s == nil {
		panic("comm: nil simulator")
	}
	if delay < 0 {
		panic(fmt.Sprintf("comm: negative delay %v", delay))
	}
	if recv == nil {
		panic("comm: nil receive function")
	}
	l := &LinkOf[M]{simulator: s, delay: delay, recv: recv}
	l.deliverFn = l.deliverNext
	return l
}

// NewLink returns a callback link with the given one-way delay in seconds.
func NewLink(s *sim.Simulator, delay float64) *Link {
	l := NewLinkOf(s, delay, call)
	l.vet = vetCallback
	return l
}

// call is the callback links' receive function.
func call(deliver func()) { deliver() }

// vetCallback refuses a nil callback at Send, where the mistake is made,
// rather than at its delivery.
func vetCallback(deliver func()) {
	if deliver == nil {
		panic("comm: nil delivery callback")
	}
}

// Delay returns the link's one-way delay.
func (l *LinkOf[M]) Delay() float64 { return l.delay }

// Send delivers m to the link's receive function one propagation delay from
// now. Successive sends are delivered in send order.
func (l *LinkOf[M]) Send(m M) {
	if l.vet != nil {
		l.vet(m)
	}
	l.sent++
	l.pending.Push(m)
	l.simulator.Schedule(l.delay, l.deliverFn)
}

// deliverNext pops and delivers the oldest in-flight message.
func (l *LinkOf[M]) deliverNext() {
	m := l.pending.Pop()
	l.delivered++
	l.recv(m)
}

// Sent returns the number of messages sent on the link.
func (l *LinkOf[M]) Sent() uint64 { return l.sent }

// Delivered returns the number of messages delivered.
func (l *LinkOf[M]) Delivered() uint64 { return l.delivered }

// InFlight returns the number of messages sent but not yet delivered.
func (l *LinkOf[M]) InFlight() uint64 { return l.sent - l.delivered }

// Ring is a FIFO queue that reuses its backing array: it rewinds whenever it
// drains, and a queue that never fully drains folds its live tail back to
// the front once the consumed head outgrows it. The zero value is empty.
type Ring[M any] struct {
	buf  []M
	head int
}

// Push appends m at the back.
func (r *Ring[M]) Push(m M) { r.buf = append(r.buf, m) }

// Pop removes and returns the front value. The ring must not be empty.
func (r *Ring[M]) Pop() M {
	var zero M
	m := r.buf[r.head]
	r.buf[r.head] = zero // drop any pointer the value holds
	r.head++
	if r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	} else if r.head >= 64 && r.head*2 >= len(r.buf) {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf = r.buf[:n]
		r.head = 0
	}
	return m
}

// NetworkOf is the star topology of the hybrid architecture: every local
// site has an uplink to and a downlink from the central site, all with the
// same one-way delay D.
type NetworkOf[M any] struct {
	up   []*LinkOf[M]
	down []*LinkOf[M]
}

// Network is a star network of callback links.
type Network = NetworkOf[func()]

// NewNetworkOf builds a star network for n local sites with one-way delay d:
// every uplink delivers to toCentral, every downlink to toSite.
func NewNetworkOf[M any](s *sim.Simulator, n int, d float64, toCentral, toSite func(M)) *NetworkOf[M] {
	if n <= 0 {
		panic(fmt.Sprintf("comm: non-positive site count %d", n))
	}
	net := &NetworkOf[M]{
		up:   make([]*LinkOf[M], n),
		down: make([]*LinkOf[M], n),
	}
	for i := 0; i < n; i++ {
		net.up[i] = NewLinkOf(s, d, toCentral)
		net.down[i] = NewLinkOf(s, d, toSite)
	}
	return net
}

// NewNetwork builds a star network of callback links for n local sites with
// one-way delay d.
func NewNetwork(s *sim.Simulator, n int, d float64) *Network {
	net := NewNetworkOf(s, n, d, call, call)
	for i := range net.up {
		net.up[i].vet, net.down[i].vet = vetCallback, vetCallback
	}
	return net
}

// Sites returns the number of local sites.
func (n *NetworkOf[M]) Sites() int { return len(n.up) }

// Delay returns the one-way delay of every link.
func (n *NetworkOf[M]) Delay() float64 { return n.up[0].Delay() }

// ToCentral sends a message from local site i to the central site.
func (n *NetworkOf[M]) ToCentral(site int, m M) {
	n.up[site].Send(m)
}

// ToSite sends a message from the central site to local site i.
func (n *NetworkOf[M]) ToSite(site int, m M) {
	n.down[site].Send(m)
}

// MessagesSent returns the total number of messages sent on all links.
func (n *NetworkOf[M]) MessagesSent() uint64 {
	var total uint64
	for i := range n.up {
		total += n.up[i].Sent() + n.down[i].Sent()
	}
	return total
}

// MessagesInFlight returns the total number of undelivered messages.
func (n *NetworkOf[M]) MessagesInFlight() uint64 {
	var total uint64
	for i := range n.up {
		total += n.up[i].InFlight() + n.down[i].InFlight()
	}
	return total
}
