package netx

// The cluster's protocol messages and their binary payload codecs. Each
// message of the simulated lifecycle that crosses a tier boundary as a
// hybrid.Message (ship, authenticate, ack/nack, release, update,
// acknowledge, reply) is encoded here as a wire message, so the live engine
// in internal/cluster can run the same state machine across processes.
//
// Encodings are fixed-width big-endian, mirroring the frame header. List
// lengths are uint32 counts validated against the remaining payload before
// any allocation. Decoders allocate fresh slices — decoded messages never
// alias the connection's read buffer.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// Message types. Directions: load generator <-> site, site <-> central.
const (
	// MsgHello registers the sender: a site announcing its index on its
	// uplink to central (payload: Hello).
	MsgHello byte = iota + 1
	// MsgSubmit asks a site to run one transaction (load -> site, payload:
	// Txn). The site answers with a MsgResult carrying the same request id.
	MsgSubmit
	// MsgResult completes a MsgSubmit (site -> load, payload: Result).
	MsgResult
	// MsgShip transfers a transaction's input to central for execution
	// (site -> central, payload: Txn).
	MsgShip
	// MsgAuthReq runs the commit-time authentication phase at a master site
	// (central -> site, payload: AuthReq).
	MsgAuthReq
	// MsgAuthReply answers an authentication request (site -> central,
	// payload: AuthReply).
	MsgAuthReply
	// MsgRelease releases a transaction's seized authentication locks at a
	// site (central -> site, payload: Release).
	MsgRelease
	// MsgUpdate carries a committed local transaction's updates to central
	// (site -> central, payload: Update).
	MsgUpdate
	// MsgUpdateAck acknowledges an update so the site can lower its
	// coherence counts (central -> site, payload: UpdateAck).
	MsgUpdateAck
	// MsgReply delivers a shipped transaction's completion to its home site
	// (central -> site, payload: Reply).
	MsgReply
	// MsgHelloAck answers a MsgHello with the central clock reading so the
	// site can estimate its clock offset NTP-style (central -> site,
	// payload: HelloAck).
	MsgHelloAck
)

// MsgName returns a short human-readable name for a message type.
func MsgName(t byte) string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgSubmit:
		return "submit"
	case MsgResult:
		return "result"
	case MsgShip:
		return "ship"
	case MsgAuthReq:
		return "auth-req"
	case MsgAuthReply:
		return "auth-reply"
	case MsgRelease:
		return "release"
	case MsgUpdate:
		return "update"
	case MsgUpdateAck:
		return "update-ack"
	case MsgReply:
		return "reply"
	case MsgHelloAck:
		return "hello-ack"
	default:
		return fmt.Sprintf("type(%d)", t)
	}
}

// ErrTruncated is wrapped by decoders when a payload ends before the
// message's fixed fields or declared list lengths.
var ErrTruncated = errors.New("netx: truncated payload")

// ErrTrailingBytes is wrapped by decoders when a payload continues past the
// end of the message.
var ErrTrailingBytes = errors.New("netx: trailing bytes after payload")

// Snapshot is the central state piggybacked on central->site messages, the
// feedback a site's routing strategy consumes (§4.2 of the paper). The
// snapshot instant is not on the wire: the receiver stamps it as its own
// receive time minus the configured one-way delay, which keeps the two
// processes' clocks out of the protocol.
type Snapshot struct {
	Queue    int32 // central CPU queue length, job in service included
	InSystem int32 // transactions at central in any phase
	Locks    int32 // locks held at central
}

// Hello registers a site on its central uplink. T0 is the sender's local
// loop clock (seconds) at send time; central echoes it in the HelloAck so
// the site can estimate the round trip without trusting either wall clock.
type Hello struct {
	Site uint32
	T0   float64
}

// HelloAck answers a Hello: T0 is echoed verbatim, TCentral is central's
// loop clock (seconds) when the ack was produced. With the site's receive
// time t1, the NTP-style offset estimate is TCentral - (T0+t1)/2 — the
// per-process correction spans.MergeFiles applies to fuse trace files into
// one timebase.
type HelloAck struct {
	T0       float64
	TCentral float64
}

// Result completes a submitted transaction back to the load generator.
type Result struct {
	Txn     int64
	Shipped bool // executed at central rather than the home site
	ClassB  bool
}

// AuthReq asks a master site to authenticate the listed elements for a
// committing central transaction: NACK if any has in-flight updates,
// otherwise seize the locks and ACK. Traced is carried and ignored: a node
// traces because its process was asked to (DESIGN.md §15.2), not because a
// frame says so; the bit stays on the wire for the benchmark's codec probes.
type AuthReq struct {
	Txn      int64
	Elements []uint32
	Modes    []lock.Mode
	Snap     Snapshot
	Traced   bool
}

// AuthReply answers an AuthReq.
type AuthReply struct {
	Txn  int64
	Site uint32
	NACK bool
}

// Release frees a transaction's seized authentication locks at a site.
type Release struct {
	Txn  int64
	Snap Snapshot
}

// Update carries a committed local transaction's updated elements to
// central for invalidation and application. Txn identifies the committing
// transaction, so central's events for the update carry its id. Traced is
// carried and ignored, as on AuthReq.
type Update struct {
	Site     uint32
	Txn      int64
	Elements []uint32
	Traced   bool
}

// UpdateAck acknowledges an Update; the site lowers the elements' coherence
// counts.
type UpdateAck struct {
	Elements []uint32
	Snap     Snapshot
}

// Reply delivers a shipped transaction's completion to its home site.
// ClassB is carried and ignored, as Traced is (see AuthReq): the home site
// takes the class from the input it parked, and the cluster sends false.
type Reply struct {
	Txn    int64
	ClassB bool
	Snap   Snapshot
	Traced bool
}

// ---- Encoding.

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendSnapshot(dst []byte, s Snapshot) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.Queue))
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.InSystem))
	return binary.BigEndian.AppendUint32(dst, uint32(s.Locks))
}

func appendU32s(dst []byte, xs []uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(xs)))
	for _, x := range xs {
		dst = binary.BigEndian.AppendUint32(dst, x)
	}
	return dst
}

// AppendTxn encodes a transaction's input — everything a remote executor
// needs to run it — as the payload of MsgSubmit / MsgShip.
func AppendTxn(dst []byte, t *workload.Txn) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.ID))
	dst = append(dst, byte(t.Class))
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.HomeSite))
	dst = appendU32s(dst, t.Elements)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Modes)))
	for _, m := range t.Modes {
		dst = append(dst, byte(m))
	}
	return dst
}

// AppendHello encodes a Hello payload.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.BigEndian.AppendUint32(dst, h.Site)
	return appendF64(dst, h.T0)
}

// AppendHelloAck encodes a HelloAck payload.
func AppendHelloAck(dst []byte, h HelloAck) []byte {
	dst = appendF64(dst, h.T0)
	return appendF64(dst, h.TCentral)
}

// AppendShip encodes a MsgShip payload: the transaction's input plus the
// one-byte traced flag, which receivers ignore (see AuthReq).
func AppendShip(dst []byte, t *workload.Txn, traced bool) []byte {
	dst = AppendTxn(dst, t)
	return appendBool(dst, traced)
}

// AppendResult encodes a Result payload.
func AppendResult(dst []byte, r Result) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Txn))
	dst = appendBool(dst, r.Shipped)
	return appendBool(dst, r.ClassB)
}

// AppendAuthReq encodes an AuthReq payload.
func AppendAuthReq(dst []byte, a AuthReq) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.Txn))
	dst = appendU32s(dst, a.Elements)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Modes)))
	for _, m := range a.Modes {
		dst = append(dst, byte(m))
	}
	dst = appendSnapshot(dst, a.Snap)
	return appendBool(dst, a.Traced)
}

// AppendAuthReply encodes an AuthReply payload.
func AppendAuthReply(dst []byte, a AuthReply) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.Txn))
	dst = binary.BigEndian.AppendUint32(dst, a.Site)
	return appendBool(dst, a.NACK)
}

// AppendRelease encodes a Release payload.
func AppendRelease(dst []byte, r Release) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Txn))
	return appendSnapshot(dst, r.Snap)
}

// AppendUpdate encodes an Update payload.
func AppendUpdate(dst []byte, u Update) []byte {
	dst = binary.BigEndian.AppendUint32(dst, u.Site)
	dst = binary.BigEndian.AppendUint64(dst, uint64(u.Txn))
	dst = appendU32s(dst, u.Elements)
	return appendBool(dst, u.Traced)
}

// AppendUpdateAck encodes an UpdateAck payload.
func AppendUpdateAck(dst []byte, u UpdateAck) []byte {
	dst = appendU32s(dst, u.Elements)
	return appendSnapshot(dst, u.Snap)
}

// AppendReply encodes a Reply payload.
func AppendReply(dst []byte, r Reply) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Txn))
	dst = appendBool(dst, r.ClassB)
	dst = appendSnapshot(dst, r.Snap)
	return appendBool(dst, r.Traced)
}

// ---- Decoding.

// dec is a cursor over a payload; the first failure sticks.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrTruncated, what)
	}
}

func (d *dec) u8(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(what)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32(what string) uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) boolean(what string) bool { return d.u8(what) != 0 }

func (d *dec) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

// decodeMode reads and validates one lock mode.
func decodeMode(d *dec, what string) lock.Mode {
	m := lock.Mode(d.u8(what))
	if d.err == nil && m != lock.Share && m != lock.Exclusive {
		d.err = fmt.Errorf("netx: %s: invalid lock mode %d", what, byte(m))
	}
	return m
}

// count reads a list length and validates it against the bytes remaining
// (elemSize bytes per element), so a corrupt length cannot force a huge
// allocation.
func (d *dec) count(elemSize int, what string) int {
	n := d.u32(what)
	if d.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemSize) > uint64(len(d.b)) {
		d.fail(fmt.Sprintf("%s: count %d exceeds remaining %d bytes", what, n, len(d.b)))
		return 0
	}
	return int(n)
}

func (d *dec) u32s(what string) []uint32 {
	n := d.count(4, what)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.u32(what)
	}
	return out
}

func (d *dec) snapshot() Snapshot {
	return Snapshot{
		Queue:    int32(d.u32("snapshot queue")),
		InSystem: int32(d.u32("snapshot in-system")),
		Locks:    int32(d.u32("snapshot locks")),
	}
}

func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(d.b))
	}
	return nil
}

// decodeTxnBody reads a transaction's fields from the cursor without
// finishing it, shared by DecodeTxn (MsgSubmit) and DecodeShip (MsgShip,
// which carries a trailing traced flag).
func decodeTxnBody(d *dec) *workload.Txn {
	t := &workload.Txn{
		ID:       int64(d.u64("txn id")),
		Class:    workload.Class(d.u8("txn class")),
		HomeSite: int(int32(d.u32("txn home"))),
	}
	t.Elements = d.u32s("txn elements")
	n := d.count(1, "txn modes")
	if d.err == nil && n > 0 {
		t.Modes = make([]lock.Mode, n)
		for i := range t.Modes {
			t.Modes[i] = decodeMode(d, "txn mode")
		}
	}
	return t
}

func validateTxn(t *workload.Txn) error {
	if len(t.Elements) != len(t.Modes) {
		return fmt.Errorf("netx: txn %d has %d elements but %d modes", t.ID, len(t.Elements), len(t.Modes))
	}
	if t.Class != workload.ClassA && t.Class != workload.ClassB {
		return fmt.Errorf("netx: txn %d has invalid class %d", t.ID, byte(t.Class))
	}
	if t.HomeSite < 0 || t.HomeSite > math.MaxInt16 {
		return fmt.Errorf("netx: txn %d home site %d out of range", t.ID, t.HomeSite)
	}
	return nil
}

// DecodeTxn decodes a MsgSubmit payload. The returned transaction owns its
// slices.
func DecodeTxn(p []byte) (*workload.Txn, error) {
	d := &dec{b: p}
	t := decodeTxnBody(d)
	if err := d.finish(); err != nil {
		return nil, err
	}
	if err := validateTxn(t); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeShip decodes a MsgShip payload: the transaction plus the traced
// flag.
func DecodeShip(p []byte) (*workload.Txn, bool, error) {
	d := &dec{b: p}
	t := decodeTxnBody(d)
	traced := d.boolean("ship traced")
	if err := d.finish(); err != nil {
		return nil, false, err
	}
	if err := validateTxn(t); err != nil {
		return nil, false, err
	}
	return t, traced, nil
}

// DecodeHello decodes a MsgHello payload.
func DecodeHello(p []byte) (Hello, error) {
	d := &dec{b: p}
	h := Hello{Site: d.u32("hello site"), T0: d.f64("hello t0")}
	return h, d.finish()
}

// DecodeHelloAck decodes a MsgHelloAck payload.
func DecodeHelloAck(p []byte) (HelloAck, error) {
	d := &dec{b: p}
	h := HelloAck{T0: d.f64("hello-ack t0"), TCentral: d.f64("hello-ack t-central")}
	return h, d.finish()
}

// DecodeResult decodes a MsgResult payload.
func DecodeResult(p []byte) (Result, error) {
	d := &dec{b: p}
	r := Result{
		Txn:     int64(d.u64("result txn")),
		Shipped: d.boolean("result shipped"),
		ClassB:  d.boolean("result class"),
	}
	return r, d.finish()
}

// DecodeAuthReq decodes a MsgAuthReq payload.
func DecodeAuthReq(p []byte) (AuthReq, error) {
	d := &dec{b: p}
	a := AuthReq{Txn: int64(d.u64("auth txn"))}
	a.Elements = d.u32s("auth elements")
	n := d.count(1, "auth modes")
	if d.err == nil && n > 0 {
		a.Modes = make([]lock.Mode, n)
		for i := range a.Modes {
			a.Modes[i] = decodeMode(d, "auth mode")
		}
	}
	a.Snap = d.snapshot()
	a.Traced = d.boolean("auth traced")
	if err := d.finish(); err != nil {
		return AuthReq{}, err
	}
	if len(a.Elements) != len(a.Modes) {
		return AuthReq{}, fmt.Errorf("netx: auth-req %d has %d elements but %d modes", a.Txn, len(a.Elements), len(a.Modes))
	}
	return a, nil
}

// DecodeAuthReply decodes a MsgAuthReply payload.
func DecodeAuthReply(p []byte) (AuthReply, error) {
	d := &dec{b: p}
	a := AuthReply{
		Txn:  int64(d.u64("auth-reply txn")),
		Site: d.u32("auth-reply site"),
		NACK: d.boolean("auth-reply nack"),
	}
	return a, d.finish()
}

// DecodeRelease decodes a MsgRelease payload.
func DecodeRelease(p []byte) (Release, error) {
	d := &dec{b: p}
	r := Release{Txn: int64(d.u64("release txn")), Snap: d.snapshot()}
	return r, d.finish()
}

// DecodeUpdate decodes a MsgUpdate payload.
func DecodeUpdate(p []byte) (Update, error) {
	d := &dec{b: p}
	u := Update{Site: d.u32("update site"), Txn: int64(d.u64("update txn"))}
	u.Elements = d.u32s("update elements")
	u.Traced = d.boolean("update traced")
	return u, d.finish()
}

// DecodeUpdateAck decodes a MsgUpdateAck payload.
func DecodeUpdateAck(p []byte) (UpdateAck, error) {
	d := &dec{b: p}
	u := UpdateAck{Elements: d.u32s("update-ack elements"), Snap: d.snapshot()}
	return u, d.finish()
}

// DecodeReply decodes a MsgReply payload.
func DecodeReply(p []byte) (Reply, error) {
	d := &dec{b: p}
	r := Reply{
		Txn:    int64(d.u64("reply txn")),
		ClassB: d.boolean("reply class"),
		Snap:   d.snapshot(),
		Traced: d.boolean("reply traced"),
	}
	return r, d.finish()
}
