package hybrid

// The seams of the transaction core (DESIGN.md §13). The lifecycle layers —
// classify/route (node.go), execution (path.go), the commit points and the
// commit protocol (commit.go), and update propagation (propagate.go) — are
// methods of the two partition types, SiteNode and CentralNode. They never
// touch an event queue or a socket: every "read the clock" and "do this
// later" goes through the node's Scheduler, and every "tell the other tier"
// is one Message value handed to the node's Sender. The discrete-event
// simulator is one implementation of the seams (exec.Sim over internal/sim
// for time, wire_sim.go over comm.NetworkOf / shardNet for transport); the
// live cluster is the second (exec.Loop for wall-clock time, internal/cluster
// encoding each message as an internal/netx frame). Both carry the Message
// into the receiving node's Deliver, the one switch over the receive handlers
// — SiteNode.OnAuthReq, CentralNode.OnShip and so on — so there is one
// protocol implementation.

import (
	"hybriddb/internal/exec"
	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// Scheduler is the clock-plus-timer seam each partition (a local site or the
// central complex) schedules its lifecycle continuations on.
type Scheduler = exec.Scheduler

// Snapshot is the central state piggybacked on every central->site message,
// the feedback a site's routing strategy consumes (§4.2). At is the instant
// it was taken, in the receiver's timebase: the simulator carries the
// sender's clock (all partitions share virtual time), a live receiver stamps
// its own clock minus the one-way delay.
type Snapshot struct {
	Queue    int // central CPU queue length, job in service included
	InSystem int // transactions at central in any phase
	Locks    int // locks held at central
	At       float64
}

// Sender carries a node's messages to the other tier: an uplink message to
// the central complex, a downlink one to the site it names. Every
// implementation delivers FIFO per site with the configured one-way delay,
// so messages sent by one handler reach their receiver in the order sent.
type Sender interface {
	Send(Message)
}

// MsgKind names one of the seven messages of the §2 protocol.
type MsgKind uint8

// The three site->central messages, then the four central->site ones. The
// Deliver switches name each one's receive handler.
const (
	MsgShip      MsgKind = iota + 1 // a transaction's input, for central to execute in a run of its own
	MsgAuthReply                    // an authentication answer
	MsgUpdate                       // committed updates, and ownership of the slice
	MsgAuthReq                      // the commit-time authentication phase at a master site
	MsgRelease                      // frees a transaction's seized authentication locks
	MsgUpdateAck                    // lowers the coherence counts and returns the slice
	MsgReply                        // completes a shipped transaction at its home site
)

// Up reports whether k is a site->central message.
func (k MsgKind) Up() bool { return k < MsgAuthReq }

// Message is one protocol message as a value: what a node hands its Sender
// and the receiving node's Deliver takes. Only the fields its kind names are
// set. A message carries values — a transaction's input, its id, element
// lists — never a run: a run belongs to the partition that took it from its
// pool, and the receiving node resolves an id against its own tables.
type Message struct {
	Kind MsgKind
	NACK bool // AuthReply
	// Site is the sending site of an uplink message, the addressed site of a
	// downlink one.
	Site  int
	Txn   int64         // every kind but UpdateAck (0 for a batched Update)
	Spec  *workload.Txn // Ship
	Elems []uint32      // AuthReq's elements; Update's and UpdateAck's update set
	Modes []lock.Mode   // AuthReq
	Snap  Snapshot      // the four downlink messages
}

// Deliver runs the receive handler m names at this site. It reports false for
// a message the site cannot take — a Reply naming no transaction parked here
// (a stray, duplicate or late message), or a kind sent to central — having
// changed nothing.
func (s *SiteNode) Deliver(m Message) bool {
	switch m.Kind {
	case MsgAuthReq:
		s.OnAuthReq(m.Txn, m.Elems, m.Modes, m.Snap)
	case MsgRelease:
		s.OnRelease(m.Txn, m.Snap)
	case MsgUpdateAck:
		s.OnUpdateAck(m.Elems, m.Snap)
	case MsgReply:
		return s.OnReply(m.Txn, m.Snap)
	default:
		return false
	}
	return true
}

// Deliver runs the receive handler m names at central. It reports false for
// a message central cannot take — an AuthReply naming no transaction that
// awaits one, or a kind sent to a site — having changed nothing.
func (c *CentralNode) Deliver(m Message) bool {
	switch m.Kind {
	case MsgShip:
		c.OnShip(m.Spec)
	case MsgAuthReply:
		return c.OnAuthReply(m.Site, m.Txn, m.NACK)
	case MsgUpdate:
		c.OnUpdate(m.Site, m.Txn, m.Elems)
	default:
		return false
	}
	return true
}
