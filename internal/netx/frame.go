// Package netx is the wire layer of the live hybrid cluster: a
// length-prefixed binary framing over TCP (DESIGN.md §13), connections with
// per-connection write pumps and read deadlines, a reconnecting client, and
// the encoders/decoders for the cluster's protocol messages.
//
// Frame layout, in network byte order:
//
//	uint32  length   // bytes that follow: header (9) + payload
//	uint8   type     // message discriminator (Msg* constants in wire.go)
//	uint64  reqID    // request correlation id; 0 when unused
//	[]byte  payload  // length-9 bytes of message-specific encoding
//
// The length word counts the type byte, the request id, and the payload, so
// the minimum legal value is 9 (empty payload) and a reader can allocate
// exactly once per frame. Frames above MaxFrame are rejected on both sides
// before any allocation, bounding the damage of a corrupt or hostile peer.
package netx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// headerLen is the fixed frame header after the length word: one type byte
// plus the 8-byte request id.
const headerLen = 1 + 8

// MaxFrame is the largest accepted value of a frame's length word (header +
// payload). 1 MiB is orders of magnitude above any legal cluster message.
const MaxFrame = 1 << 20

// ErrFrameTooLarge is returned when a frame's length word exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("netx: frame exceeds MaxFrame")

// ErrMalformedFrame is returned when a frame's length word is shorter than
// the fixed header — no legal frame, not even an empty payload, encodes so.
var ErrMalformedFrame = errors.New("netx: frame length shorter than header")

// Frame is one decoded unit of the protocol. Payload aliases the read buffer
// it was decoded into and is only valid until the next read on that buffer.
type Frame struct {
	Type    byte
	ReqID   uint64
	Payload []byte
}

func (f Frame) String() string {
	return fmt.Sprintf("frame{type=%s req=%d payload=%dB}", MsgName(f.Type), f.ReqID, len(f.Payload))
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. It errors (without appending) if the payload would exceed MaxFrame.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	n := headerLen + len(f.Payload)
	if n > MaxFrame {
		return dst, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, len(f.Payload))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, f.Type)
	dst = binary.BigEndian.AppendUint64(dst, f.ReqID)
	return append(dst, f.Payload...), nil
}

// WriteFrame encodes f and writes it to w in one Write call.
func WriteFrame(w io.Writer, f Frame) error {
	buf := make([]byte, 0, 4+headerLen+len(f.Payload))
	buf, err := AppendFrame(buf, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, reusing buf for the body when it is
// large enough, and returns the frame plus the (possibly grown) buffer. The
// frame's Payload aliases the returned buffer. A clean EOF before the first
// length byte returns io.EOF; a connection that dies mid-frame returns
// io.ErrUnexpectedEOF; an oversized or malformed length word returns
// ErrFrameTooLarge / ErrMalformedFrame before reading the body.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The length word is read into buf too: an array local to this function
	// would escape through r and cost an allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4, 64)
	}
	lenWord := buf[:4]
	if _, err := io.ReadFull(r, lenWord); err != nil {
		// io.EOF before the first byte is a clean close; a torn length word
		// is a mid-frame death and comes back as io.ErrUnexpectedEOF.
		return Frame{}, buf, err
	}
	n := binary.BigEndian.Uint32(lenWord)
	if n > MaxFrame {
		return Frame{}, buf, fmt.Errorf("%w: length word %d", ErrFrameTooLarge, n)
	}
	if n < headerLen {
		return Frame{}, buf, fmt.Errorf("%w: length word %d", ErrMalformedFrame, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	f := Frame{
		Type:    buf[0],
		ReqID:   binary.BigEndian.Uint64(buf[1:9]),
		Payload: buf[headerLen:],
	}
	return f, buf, nil
}
