package cluster

// The wire's hybrid.Sender: each protocol message is encoded as an
// internal/netx payload and handed to the owning node's send function; each
// received payload is decoded into a hybrid.Message, which the owner queues
// and, once the emulated one-way delay has passed, hands to the link's
// deliver on the node's executor — the same Deliver the simulator calls. The
// node itself resolves a transaction id; one it does not know is reported as
// a stray. The links know nothing of sockets: a live node's send function
// writes to a netx.Conn and its inbox (inbox.go) runs deliver on the loop,
// the codec-on-simulated-time test's carries the decoded message to the
// peer's deliver on a comm.NetworkOf.
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
	"hybriddb/internal/netx"
	"hybriddb/internal/workload"
)

// errNotProtocol is what a link's receive returns for a frame type that is
// not one of its direction's protocol messages.
var errNotProtocol = errors.New("cluster: not a protocol message")

// appendMessage encodes m onto dst as the payload of its netx frame type. A
// snapshot's instant stays off the wire, stamped by the receiver, and so
// does a Reply's class: the home site reads it from the input it parked.
func appendMessage(dst []byte, m hybrid.Message) (byte, []byte) {
	snap := netx.Snapshot{Queue: int32(m.Snap.Queue), InSystem: int32(m.Snap.InSystem), Locks: int32(m.Snap.Locks)}
	switch m.Kind {
	case hybrid.MsgShip:
		dst = netx.AppendShip(dst, m.Spec, true)
	case hybrid.MsgAuthReply:
		dst = netx.AppendAuthReply(dst, netx.AuthReply{Txn: m.Txn, Site: uint32(m.Site), NACK: m.NACK})
	case hybrid.MsgUpdate:
		dst = netx.AppendUpdate(dst, netx.Update{Site: uint32(m.Site), Txn: m.Txn, Elements: m.Elems, Traced: true})
	case hybrid.MsgAuthReq:
		dst = netx.AppendAuthReq(dst, netx.AuthReq{Txn: m.Txn, Elements: m.Elems, Modes: m.Modes, Snap: snap, Traced: true})
	case hybrid.MsgRelease:
		dst = netx.AppendRelease(dst, netx.Release{Txn: m.Txn, Snap: snap})
	case hybrid.MsgUpdateAck:
		dst = netx.AppendUpdateAck(dst, netx.UpdateAck{Elements: m.Elems, Snap: snap})
	case hybrid.MsgReply:
		dst = netx.AppendReply(dst, netx.Reply{Txn: m.Txn, Snap: snap, Traced: true})
	default:
		panic(fmt.Sprintf("cluster: no frame for message kind %d", m.Kind))
	}
	return frameType[m.Kind], dst
}

// decodeMessage decodes one frame into its protocol message. Kind is set for
// every protocol frame type, even when the payload does not decode, and is 0
// (with errNotProtocol) for any other. An uplink message names its sender;
// a downlink one leaves Site to the receiving link, and a snapshot's instant
// to deliver.
func decodeMessage(msgType byte, p []byte) (hybrid.Message, error) {
	switch msgType {
	case netx.MsgShip:
		spec, _, err := netx.DecodeShip(p)
		if err != nil {
			return hybrid.Message{Kind: hybrid.MsgShip}, err
		}
		return hybrid.Message{Kind: hybrid.MsgShip, Site: spec.HomeSite, Txn: spec.ID, Spec: spec}, nil
	case netx.MsgAuthReply:
		a, err := netx.DecodeAuthReply(p)
		return hybrid.Message{Kind: hybrid.MsgAuthReply, Site: int(a.Site), Txn: a.Txn, NACK: a.NACK}, err
	case netx.MsgUpdate:
		u, err := netx.DecodeUpdate(p)
		return hybrid.Message{Kind: hybrid.MsgUpdate, Site: int(u.Site), Txn: u.Txn, Elems: u.Elements}, err
	case netx.MsgAuthReq:
		a, err := netx.DecodeAuthReq(p)
		return hybrid.Message{Kind: hybrid.MsgAuthReq, Txn: a.Txn, Elems: a.Elements, Modes: a.Modes, Snap: fromWire(a.Snap)}, err
	case netx.MsgRelease:
		r, err := netx.DecodeRelease(p)
		return hybrid.Message{Kind: hybrid.MsgRelease, Txn: r.Txn, Snap: fromWire(r.Snap)}, err
	case netx.MsgUpdateAck:
		u, err := netx.DecodeUpdateAck(p)
		return hybrid.Message{Kind: hybrid.MsgUpdateAck, Elems: u.Elements, Snap: fromWire(u.Snap)}, err
	case netx.MsgReply:
		r, err := netx.DecodeReply(p)
		return hybrid.Message{Kind: hybrid.MsgReply, Txn: r.Txn, Snap: fromWire(r.Snap)}, err
	}
	return hybrid.Message{}, errNotProtocol
}

// fromWire converts a piggybacked snapshot; its instant is stamped at
// delivery.
func fromWire(s netx.Snapshot) hybrid.Snapshot {
	return hybrid.Snapshot{Queue: int(s.Queue), InSystem: int(s.InSystem), Locks: int(s.Locks)}
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

// siteLink is a site's end of the wire: the node's Sender up to central, and
// the receiver of the four central->site messages.
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

// Send encodes an uplink message and transmits it.
func (l *siteLink) Send(m hybrid.Message) {
	var msgType byte
	msgType, l.buf = appendMessage(l.buf[:0], m)
	l.send(msgType, m.Txn, l.buf)
}

// receive decodes one central->site frame into the message deliver takes
// after the emulated link delay, addressed to this site.
func (l *siteLink) receive(msgType byte, p []byte) (hybrid.Message, error) {
	m, err := decodeMessage(msgType, p)
	if m.Kind.Up() { // an uplink kind, or no protocol message at all
		return hybrid.Message{}, errNotProtocol
	}
	m.Site = l.site
	return m, err
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

// centralLink is the central complex's end of the wire: the node's Sender
// down to the sites, and the receiver of the three site->central messages.
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

// Send encodes a downlink message and transmits it to the site it names.
func (l *centralLink) Send(m hybrid.Message) {
	var msgType byte
	msgType, l.buf = appendMessage(l.buf[:0], m)
	l.send(m.Site, msgType, l.buf)
}

// receive decodes one site->central frame into the message deliver takes
// after the emulated link delay. A Ship's input is validated here.
func (l *centralLink) receive(msgType byte, p []byte) (hybrid.Message, error) {
	m, err := decodeMessage(msgType, p)
	if m.Kind == 0 || !m.Kind.Up() {
		return hybrid.Message{}, errNotProtocol
	}
	if err == nil && m.Kind == hybrid.MsgShip {
		err = hybrid.CheckSpec(l.cfg, m.Spec)
	}
	return m, err
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
