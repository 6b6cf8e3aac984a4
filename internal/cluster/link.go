package cluster

// The wire implementation of hybrid's Transport seam: each of the protocol's
// seven typed sends is encoded as an internal/netx payload and handed to the
// owning node's send function; each received payload is decoded, its
// transaction id resolved to the run it names (the pointer that rides the
// message in simulation), and the same hybrid receive handler the simulator
// delivers into is returned for the caller to run once the emulated one-way
// delay has passed. The links know nothing of sockets: a live node's send
// function writes to a netx.Conn, the codec-on-simulated-time test's
// schedules the peer's handler on a comm.Network.

import (
	"errors"

	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/lock"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/workload"
)

// errNotProtocol is what a link's receive returns for a frame type that is
// not one of its direction's protocol messages.
var errNotProtocol = errors.New("cluster: not a protocol message")

// toWire drops a snapshot's instant: it is not on the wire.
func toWire(s hybrid.Snapshot) netx.Snapshot {
	return netx.Snapshot{Queue: int32(s.Queue), InSystem: int32(s.InSystem), Locks: int32(s.Locks)}
}

// siteLink is a site's end of the wire: the node's hybrid.Uplink, and the
// decoder of the four central->site messages.
type siteLink struct {
	node  *hybrid.SiteNode
	clock exec.Clock
	delay float64 // emulated one-way delay, for stamping received snapshots

	// send transmits one uplink frame; txn is for the sender's logs.
	send func(msgType byte, txn int64, payload []byte)
	// stray reports a message naming a transaction this end does not know.
	stray func(msgType byte, txn int64)
	// spans, when set, marks each authentication answer on the site's lane.
	spans *spans.Recorder

	// shipped holds the runs whose transactions are away at central: the
	// Reply names one by id.
	shipped map[int64]*hybrid.TxnRun
}

func (l *siteLink) Ship(_ int, t *hybrid.TxnRun) {
	spec := t.Spec()
	l.shipped[spec.ID] = t
	l.send(netx.MsgShip, spec.ID, netx.AppendShip(nil, spec, true))
}

func (l *siteLink) AuthReply(site int, _ *hybrid.TxnRun, txn int64, nack bool) {
	if l.spans != nil {
		verdict := "auth-ack"
		if nack {
			verdict = "auth-nack"
		}
		l.spans.Instant(l.clock.Now(), txn, verdict)
	}
	l.send(netx.MsgAuthReply, txn, netx.AppendAuthReply(nil, netx.AuthReply{Txn: txn, Site: uint32(site), NACK: nack}))
}

func (l *siteLink) Update(site int, txn int64, updates []uint32) {
	l.send(netx.MsgUpdate, txn, netx.AppendUpdate(nil, netx.Update{
		Site: uint32(site), Txn: txn, Elements: updates, Traced: true,
	}))
}

// received converts a piggybacked snapshot into the receiver's timebase: it
// was taken one emulated link delay ago. Keeping the two processes' clocks
// out of the protocol costs only the (sub-millisecond on loopback) real
// transport latency.
func (l *siteLink) received(s netx.Snapshot) hybrid.Snapshot {
	return hybrid.Snapshot{
		Queue: int(s.Queue), InSystem: int(s.InSystem), Locks: int(s.Locks),
		At: l.clock.Now() - l.delay,
	}
}

// receive decodes one central->site frame. The returned handler must run on
// the node's executor, after the emulated link delay.
func (l *siteLink) receive(msgType byte, p []byte) (txn int64, handle func(), err error) {
	switch msgType {
	case netx.MsgAuthReq:
		a, err := netx.DecodeAuthReq(p)
		return a.Txn, func() { l.node.OnAuthReq(nil, a.Txn, a.Elements, a.Modes, l.received(a.Snap)) }, err
	case netx.MsgRelease:
		r, err := netx.DecodeRelease(p)
		return r.Txn, func() { l.node.OnRelease(r.Txn, l.received(r.Snap)) }, err
	case netx.MsgUpdateAck:
		u, err := netx.DecodeUpdateAck(p)
		return 0, func() { l.node.OnUpdateAck(u.Elements, l.received(u.Snap)) }, err
	case netx.MsgReply:
		r, err := netx.DecodeReply(p)
		return r.Txn, func() {
			t, ok := l.shipped[r.Txn]
			if !ok {
				l.stray(msgType, r.Txn)
				return
			}
			delete(l.shipped, r.Txn)
			l.node.OnReply(t, l.received(r.Snap))
		}, err
	}
	return 0, nil, errNotProtocol
}

// centralLink is the central complex's end of the wire: the node's
// hybrid.Downlink, and the decoder of the three site->central messages.
type centralLink struct {
	node *hybrid.CentralNode

	// send transmits one downlink frame to a site.
	send  func(site int, msgType byte, payload []byte)
	stray func(msgType byte, txn int64)
}

func (l *centralLink) AuthReq(site int, _ *hybrid.TxnRun, txn int64, elems []uint32, modes []lock.Mode, snap hybrid.Snapshot) {
	l.send(site, netx.MsgAuthReq, netx.AppendAuthReq(nil, netx.AuthReq{
		Txn: txn, Elements: elems, Modes: modes, Snap: toWire(snap), Traced: true,
	}))
}

func (l *centralLink) Release(site int, txn int64, snap hybrid.Snapshot) {
	l.send(site, netx.MsgRelease, netx.AppendRelease(nil, netx.Release{Txn: txn, Snap: toWire(snap)}))
}

func (l *centralLink) UpdateAck(site int, updates []uint32, snap hybrid.Snapshot) {
	l.send(site, netx.MsgUpdateAck, netx.AppendUpdateAck(nil, netx.UpdateAck{Elements: updates, Snap: toWire(snap)}))
}

// Reply encodes the completion and returns the adopted run to the node's
// pool: across a wire the home site completes its own run.
func (l *centralLink) Reply(home int, t *hybrid.TxnRun, snap hybrid.Snapshot) {
	spec := t.Spec()
	l.send(home, netx.MsgReply, netx.AppendReply(nil, netx.Reply{
		Txn: spec.ID, ClassB: spec.Class == workload.ClassB, Snap: toWire(snap), Traced: true,
	}))
	l.node.FreeRun(t)
}

// receive decodes one site->central frame. The returned handler must run on
// the node's executor, after the emulated link delay.
func (l *centralLink) receive(msgType byte, p []byte) (txn int64, handle func(), err error) {
	switch msgType {
	case netx.MsgShip:
		spec, _, err := netx.DecodeShip(p)
		if err != nil {
			return 0, nil, err
		}
		return spec.ID, func() { l.node.OnShip(l.node.AdoptRun(spec)) }, nil
	case netx.MsgAuthReply:
		a, err := netx.DecodeAuthReply(p)
		return a.Txn, func() {
			t := l.node.AwaitingAuth(a.Txn)
			if t == nil {
				l.stray(msgType, a.Txn)
				return
			}
			l.node.OnAuthReply(t, int(a.Site), a.NACK)
		}, err
	case netx.MsgUpdate:
		u, err := netx.DecodeUpdate(p)
		return u.Txn, func() { l.node.OnUpdate(int(u.Site), u.Txn, u.Elements) }, err
	}
	return 0, nil, errNotProtocol
}
