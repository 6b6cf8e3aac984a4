package cluster

import (
	"errors"
	"reflect"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/lock"
	"hybriddb/internal/netx"
	"hybriddb/internal/workload"
)

// codecMessages is one message of each of the seven kinds, every field its
// kind names set.
func codecMessages(cfg hybrid.Config) []hybrid.Message {
	spec := workload.NewGenerator(cfg.WorkloadConfig(), 5).Next(2)
	snap := hybrid.Snapshot{Queue: 3, InSystem: 7, Locks: 11, At: 4.5}
	return []hybrid.Message{
		{Kind: hybrid.MsgShip, Site: spec.HomeSite, Txn: spec.ID, Spec: spec},
		{Kind: hybrid.MsgAuthReply, Site: 2, Txn: 41, NACK: true},
		{Kind: hybrid.MsgUpdate, Site: 1, Txn: 42, Elems: []uint32{5, 900}},
		{Kind: hybrid.MsgAuthReq, Site: 3, Txn: 43, Elems: []uint32{1, 2}, Modes: []lock.Mode{lock.Share, lock.Exclusive}, Snap: snap},
		{Kind: hybrid.MsgRelease, Site: 0, Txn: 44, Snap: snap},
		{Kind: hybrid.MsgUpdateAck, Site: 2, Elems: []uint32{5, 900}, Snap: snap},
		{Kind: hybrid.MsgReply, Site: 1, Txn: 45, Snap: snap},
	}
}

// TestCodecRoundTrip: each message survives appendMessage and the receiving
// link's decode, but for the snapshot instant its deliver stamps; a downlink
// message's site is the receiving link's own. A truncated payload is a
// decode error, which costs the sender its connection, not a frame of the
// wrong type.
func TestCodecRoundTrip(t *testing.T) {
	cfg := codecConfig()
	central := &centralLink{cfg: &cfg}
	seen := make(map[byte]bool)
	for _, m := range codecMessages(cfg) {
		msgType, payload := appendMessage(nil, m)
		if seen[msgType] {
			t.Errorf("kind %d reuses frame type %s", m.Kind, netx.MsgName(msgType))
		}
		seen[msgType] = true
		receive := central.receive
		if !m.Kind.Up() {
			receive = (&siteLink{site: m.Site}).receive
		}
		if _, err := receive(msgType, payload[:1]); err == nil || errors.Is(err, errNotProtocol) {
			t.Errorf("%s truncated to 1 byte: err %v, want a decode error", netx.MsgName(msgType), err)
		}
		got, err := receive(msgType, payload)
		if err != nil {
			t.Errorf("%s: %v", netx.MsgName(msgType), err)
			continue
		}
		m.Snap.At = 0
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s did not round-trip:\nsent %+v\ngot  %+v", netx.MsgName(msgType), m, got)
		}
	}
}

// TestLinksRefuseOtherFrames: a link receives only its direction's protocol
// messages. The other direction's — well-formed or not — and the handshake
// and load-generator frames are errNotProtocol, never a decode error that
// would cost the sender its connection.
func TestLinksRefuseOtherFrames(t *testing.T) {
	cfg := codecConfig()
	central, site := &centralLink{cfg: &cfg}, &siteLink{site: 1}
	type frame struct {
		msgType byte
		payload []byte
	}
	var toSite, toCentral []frame
	for _, m := range codecMessages(cfg) {
		msgType, payload := appendMessage(nil, m)
		wrong := &toCentral
		if m.Kind.Up() {
			wrong = &toSite
		}
		*wrong = append(*wrong, frame{msgType, payload}, frame{msgType, payload[:1]})
	}
	spec := workload.NewGenerator(cfg.WorkloadConfig(), 5).Next(0)
	for _, f := range []frame{
		{netx.MsgHello, netx.AppendHello(nil, netx.Hello{Site: 1, T0: 2})},
		{netx.MsgHelloAck, netx.AppendHelloAck(nil, netx.HelloAck{T0: 2, TCentral: 3})},
		{netx.MsgSubmit, netx.AppendTxn(nil, spec)},
		{netx.MsgResult, netx.AppendResult(nil, netx.Result{Txn: spec.ID})},
		{0, nil},
	} {
		toSite, toCentral = append(toSite, f), append(toCentral, f)
	}
	for _, f := range toSite {
		if _, err := site.receive(f.msgType, f.payload); !errors.Is(err, errNotProtocol) {
			t.Errorf("site link took %s (%d bytes): err %v", netx.MsgName(f.msgType), len(f.payload), err)
		}
	}
	for _, f := range toCentral {
		if _, err := central.receive(f.msgType, f.payload); !errors.Is(err, errNotProtocol) {
			t.Errorf("central link took %s (%d bytes): err %v", netx.MsgName(f.msgType), len(f.payload), err)
		}
	}
}
