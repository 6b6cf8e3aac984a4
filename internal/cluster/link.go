package cluster

// The wire implementation of hybrid's Transport seam: each of the protocol's
// seven typed sends is encoded as an internal/netx payload and handed to the
// owning node's send function; each received payload is decoded into a
// hybrid.Message, which the owner queues and, once the emulated one-way delay
// has passed, hands to the link's deliver on the node's executor — the same
// Deliver the simulator calls. The node itself resolves a transaction id; one
// it does not know is reported as a stray. The links know nothing of sockets:
// a live node's send function writes to a netx.Conn and its inbox (inbox.go)
// runs deliver on the loop, the codec-on-simulated-time test's carries the
// decoded message to the peer's deliver on a comm.NetworkOf.
//
// Each link encodes into one scratch buffer it owns, reused for every send:
// all sends of a link happen on its node's executor, and a send function must
// be done with the payload when it returns — netx.Conn.Send copies it into
// the frame it queues, the codec-on-simulated-time test decodes it on the
// spot, and decoded messages own their memory.

import (
	"errors"
	"fmt"

	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/lock"
	"hybriddb/internal/netx"
	"hybriddb/internal/workload"
)

// errNotProtocol is what a link's receive returns for a frame type that is
// not one of its direction's protocol messages.
var errNotProtocol = errors.New("cluster: not a protocol message")

// checkSpec rejects a decoded transaction input the lifecycle cannot run: it
// indexes Elements by call number and sends the completion to HomeSite.
func checkSpec(cfg *hybrid.Config, spec *workload.Txn) error {
	if len(spec.Elements) != cfg.CallsPerTxn {
		return fmt.Errorf("txn %d has %d elements, the configuration runs %d calls", spec.ID, len(spec.Elements), cfg.CallsPerTxn)
	}
	if spec.HomeSite >= cfg.Sites {
		return fmt.Errorf("txn %d home site %d out of range [0,%d)", spec.ID, spec.HomeSite, cfg.Sites)
	}
	return nil
}

// toWire drops a snapshot's instant: it is not on the wire.
func toWire(s hybrid.Snapshot) netx.Snapshot {
	return netx.Snapshot{Queue: int32(s.Queue), InSystem: int32(s.InSystem), Locks: int32(s.Locks)}
}

// siteLink is a site's end of the wire: the node's hybrid.Uplink, and the
// decoder of the four central->site messages.
type siteLink struct {
	node  *hybrid.SiteNode
	site  int
	clock exec.Clock
	delay float64 // emulated one-way delay, for stamping received snapshots

	// send transmits one uplink frame; txn is for the sender's logs. The
	// payload is buf, valid only until send returns.
	send func(msgType byte, txn int64, payload []byte)
	buf  []byte
	// stray reports a message naming a transaction this end does not know.
	stray func(msgType byte, txn int64)
}

func (l *siteLink) Ship(_ int, spec *workload.Txn) {
	l.buf = netx.AppendShip(l.buf[:0], spec, true)
	l.send(netx.MsgShip, spec.ID, l.buf)
}

func (l *siteLink) AuthReply(site int, txn int64, nack bool) {
	l.buf = netx.AppendAuthReply(l.buf[:0], netx.AuthReply{Txn: txn, Site: uint32(site), NACK: nack})
	l.send(netx.MsgAuthReply, txn, l.buf)
}

func (l *siteLink) Update(site int, txn int64, updates []uint32) {
	l.buf = netx.AppendUpdate(l.buf[:0], netx.Update{
		Site: uint32(site), Txn: txn, Elements: updates, Traced: true,
	})
	l.send(netx.MsgUpdate, txn, l.buf)
}

// fromWire converts a piggybacked snapshot; its instant is stamped at
// delivery.
func fromWire(s netx.Snapshot) hybrid.Snapshot {
	return hybrid.Snapshot{Queue: int(s.Queue), InSystem: int(s.InSystem), Locks: int(s.Locks)}
}

// receive decodes one central->site frame into the message deliver takes
// after the emulated link delay.
func (l *siteLink) receive(msgType byte, p []byte) (hybrid.Message, error) {
	m := hybrid.Message{Site: l.site}
	switch msgType {
	case netx.MsgAuthReq:
		a, err := netx.DecodeAuthReq(p)
		m.Kind, m.Txn, m.Elems, m.Modes, m.Snap = hybrid.MsgAuthReq, a.Txn, a.Elements, a.Modes, fromWire(a.Snap)
		return m, err
	case netx.MsgRelease:
		r, err := netx.DecodeRelease(p)
		m.Kind, m.Txn, m.Snap = hybrid.MsgRelease, r.Txn, fromWire(r.Snap)
		return m, err
	case netx.MsgUpdateAck:
		u, err := netx.DecodeUpdateAck(p)
		m.Kind, m.Elems, m.Snap = hybrid.MsgUpdateAck, u.Elements, fromWire(u.Snap)
		return m, err
	case netx.MsgReply:
		r, err := netx.DecodeReply(p)
		m.Kind, m.Txn, m.Snap = hybrid.MsgReply, r.Txn, fromWire(r.Snap)
		return m, err
	}
	return m, errNotProtocol
}

// deliver hands a received message to the node, on its executor. The
// piggybacked snapshot is stamped in the receiver's timebase: it was taken
// one emulated link delay ago. Keeping the two processes' clocks out of the
// protocol costs only the (sub-millisecond on loopback) real transport
// latency.
func (l *siteLink) deliver(m hybrid.Message) {
	m.Snap.At = l.clock.Now() - l.delay
	if !l.node.Deliver(m) {
		l.stray(frameType[m.Kind], m.Txn)
	}
}

// centralLink is the central complex's end of the wire: the node's
// hybrid.Downlink, and the decoder of the three site->central messages.
type centralLink struct {
	node *hybrid.CentralNode
	cfg  *hybrid.Config

	// send transmits one downlink frame to a site. The payload is buf, valid
	// only until send returns.
	send  func(site int, msgType byte, payload []byte)
	buf   []byte
	stray func(msgType byte, txn int64)
	// accept is the owner's admission check for a Ship that decoded and
	// validated, run on the node's executor: it reports whether the input
	// may run, having refused one that may not; from is the connection it
	// arrived on.
	accept func(from *netx.Conn, spec *workload.Txn) bool
}

func (l *centralLink) AuthReq(site int, txn int64, elems []uint32, modes []lock.Mode, snap hybrid.Snapshot) {
	l.buf = netx.AppendAuthReq(l.buf[:0], netx.AuthReq{
		Txn: txn, Elements: elems, Modes: modes, Snap: toWire(snap), Traced: true,
	})
	l.send(site, netx.MsgAuthReq, l.buf)
}

func (l *centralLink) Release(site int, txn int64, snap hybrid.Snapshot) {
	l.buf = netx.AppendRelease(l.buf[:0], netx.Release{Txn: txn, Snap: toWire(snap)})
	l.send(site, netx.MsgRelease, l.buf)
}

func (l *centralLink) UpdateAck(site int, updates []uint32, snap hybrid.Snapshot) {
	l.buf = netx.AppendUpdateAck(l.buf[:0], netx.UpdateAck{Elements: updates, Snap: toWire(snap)})
	l.send(site, netx.MsgUpdateAck, l.buf)
}

func (l *centralLink) Reply(home int, txn int64, classB bool, snap hybrid.Snapshot) {
	l.buf = netx.AppendReply(l.buf[:0], netx.Reply{
		Txn: txn, ClassB: classB, Snap: toWire(snap), Traced: true,
	})
	l.send(home, netx.MsgReply, l.buf)
}

// receive decodes one site->central frame into the message deliver takes
// after the emulated link delay. A Ship's input is validated here.
func (l *centralLink) receive(msgType byte, p []byte) (hybrid.Message, error) {
	switch msgType {
	case netx.MsgShip:
		spec, _, err := netx.DecodeShip(p)
		if err == nil {
			err = checkSpec(l.cfg, spec)
		}
		if err != nil {
			return hybrid.Message{}, err
		}
		return hybrid.Message{Kind: hybrid.MsgShip, Site: spec.HomeSite, Txn: spec.ID, Spec: spec}, nil
	case netx.MsgAuthReply:
		a, err := netx.DecodeAuthReply(p)
		return hybrid.Message{Kind: hybrid.MsgAuthReply, Site: int(a.Site), Txn: a.Txn, NACK: a.NACK}, err
	case netx.MsgUpdate:
		u, err := netx.DecodeUpdate(p)
		return hybrid.Message{Kind: hybrid.MsgUpdate, Site: int(u.Site), Txn: u.Txn, Elems: u.Elements}, err
	}
	return hybrid.Message{}, errNotProtocol
}

// deliver hands a message that arrived on from to the node, on its executor.
// A Ship passes the owner's admission check first.
func (l *centralLink) deliver(m hybrid.Message, from *netx.Conn) {
	if m.Kind == hybrid.MsgShip && !l.accept(from, m.Spec) {
		return
	}
	if !l.node.Deliver(m) {
		l.stray(frameType[m.Kind], m.Txn)
	}
}

// frameType is each protocol message's netx frame type.
var frameType = [...]byte{
	hybrid.MsgShip:      netx.MsgShip,
	hybrid.MsgAuthReply: netx.MsgAuthReply,
	hybrid.MsgUpdate:    netx.MsgUpdate,
	hybrid.MsgAuthReq:   netx.MsgAuthReq,
	hybrid.MsgRelease:   netx.MsgRelease,
	hybrid.MsgUpdateAck: netx.MsgUpdateAck,
	hybrid.MsgReply:     netx.MsgReply,
}
