package netx

// Connection plumbing: a framed connection with a per-connection write pump
// and request-id correlation, and a reconnecting client with exponential
// backoff for the long-lived uplinks of the cluster.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed connection or client.
var ErrClosed = errors.New("netx: connection closed")

// ErrNotConnected is returned by a Client while its link is down.
var ErrNotConnected = errors.New("netx: not connected")

// ErrSendQueueFull is wrapped in the close reason of a connection killed by
// write backpressure.
var ErrSendQueueFull = errors.New("netx: send queue full")

// Handler consumes inbound frames that are not Call responses. It runs on
// the connection's read goroutine: the frame's Payload aliases the read
// buffer, so the handler must decode (or copy) it before returning —
// decoded messages own their memory and may cross goroutines freely.
type Handler func(c *Conn, f Frame)

// Options tunes a connection.
type Options struct {
	// ReadTimeout arms a deadline on every frame read; a link silent for
	// longer is dropped. Zero leaves reads undeadlined, for idle-tolerant
	// inner links.
	ReadTimeout time.Duration
	// SendQueue bounds the frames accepted by Send and not yet written
	// (default 1024). A peer slow enough to fill it gets disconnected rather
	// than blocking the sender — the cluster's event loops must never stall
	// on a socket.
	SendQueue int
	// Stats, when non-nil, receives transport tallies (frames, bytes,
	// queue depth, deadline hits) from every connection using these
	// options.
	Stats *Stats
}

// readBuffer is Serve's buffer: a few dozen protocol frames per read(2).
const readBuffer = 16 << 10

func (o Options) sendQueue() int {
	if o.SendQueue <= 0 {
		return 1024
	}
	return o.SendQueue
}

// Conn is a framed connection. Sends are asynchronous: frames queue to a
// per-connection write pump goroutine, so senders (the cluster's event
// loops) never block on the socket. Inbound frames are read by Serve, which
// completes pending Calls by request id and hands everything else to the
// handler.
//
// The pump batches without waiting: each pass takes every frame that queued
// while its previous write was in the kernel and flushes them with one
// net.Buffers.WriteTo — a single writev on a *net.TCPConn. There is no flush
// timer and no batching window, so a lone frame leaves as soon as the pump
// runs and a burst costs one syscall instead of one per frame.
type Conn struct {
	nc   net.Conn
	opts Options

	mu      sync.Mutex
	work    *sync.Cond // the pump waits here for queue or closed
	queue   [][]byte   // encoded frames awaiting the pump, oldest first
	free    [][]byte   // frame buffers ready for reuse
	unsent  int        // frames accepted and not yet written: queue + the pump's batch
	pending map[uint64]chan Frame
	nextReq uint64
	closed  bool
	reason  error

	writerDone chan struct{}
}

// maxPooledFrame caps the capacity of a frame buffer kept for reuse, so one
// outsized frame does not pin its memory for the connection's lifetime.
const maxPooledFrame = 4 << 10

// NewConn wraps an established net.Conn and starts its write pump. The
// caller must run Serve (usually on its own goroutine) to read.
func NewConn(nc net.Conn, opts Options) *Conn {
	c := &Conn{
		nc:         nc,
		opts:       opts,
		pending:    make(map[uint64]chan Frame),
		writerDone: make(chan struct{}),
	}
	c.work = sync.NewCond(&c.mu)
	go c.writePump()
	return c
}

func (c *Conn) writePump() {
	defer close(c.writerDone)
	// WriteTo consumes the net.Buffers it is called on — the slice header and
	// the elements of its backing array — so each flush copies the batch into
	// iov and hands that over, keeping batch itself to recycle the buffers.
	// bufs escapes through WriteTo; declared here it does so once per pump.
	var (
		batch, iov [][]byte
		bufs       net.Buffers
	)
	for {
		c.mu.Lock()
		for _, b := range batch {
			if cap(b) <= maxPooledFrame {
				c.free = append(c.free, b)
			}
		}
		c.unsent -= len(batch)
		if st := c.opts.Stats; st != nil {
			st.SendQueueDepth.Add(-int64(len(batch)))
		}
		for len(c.queue) == 0 && !c.closed {
			c.work.Wait()
		}
		if c.closed {
			if st := c.opts.Stats; st != nil {
				st.SendQueueDepth.Add(-int64(len(c.queue)))
			}
			c.mu.Unlock()
			return
		}
		batch, c.queue = c.queue, batch[:0]
		c.mu.Unlock()

		var err error
		if len(batch) == 1 {
			_, err = c.nc.Write(batch[0])
		} else {
			iov = append(iov[:0], batch...)
			bufs = iov
			_, err = bufs.WriteTo(c.nc)
		}
		if st := c.opts.Stats; st != nil {
			st.Flushes.Add(1)
		}
		if err != nil {
			c.closeWith(fmt.Errorf("netx: write: %w", err))
		}
	}
}

// Send queues one frame on the write pump, copying payload before it
// returns. It never blocks: a connection with SendQueue frames accepted and
// not yet written is killed (slow-peer protection) and Send returns the
// close reason.
func (c *Conn) Send(msgType byte, reqID uint64, payload []byte) error {
	c.mu.Lock()
	if c.closed {
		err := c.reason
		c.mu.Unlock()
		return err
	}
	if c.unsent >= c.opts.sendQueue() {
		c.mu.Unlock()
		if st := c.opts.Stats; st != nil {
			st.QueueFullKills.Add(1)
		}
		c.closeWith(fmt.Errorf("%w (%d frames)", ErrSendQueueFull, c.opts.sendQueue()))
		return c.closeReason()
	}
	var buf []byte
	if n := len(c.free); n > 0 {
		buf, c.free = c.free[n-1][:0], c.free[:n-1]
	}
	buf, err := AppendFrame(buf, Frame{Type: msgType, ReqID: reqID, Payload: payload})
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.queue = append(c.queue, buf)
	c.unsent++
	if len(c.queue) == 1 {
		c.work.Signal() // the pump may be waiting; with more queued it cannot be
	}
	if st := c.opts.Stats; st != nil {
		st.FramesOut.Add(1)
		st.BytesOut.Add(uint64(len(buf)))
		st.SendQueueDepth.Add(1)
	}
	c.mu.Unlock()
	return nil
}

// Call sends a frame with a fresh request id and blocks until a response
// frame carrying that id arrives, the context ends, or the connection dies.
// The response payload is copied and safe to retain.
func (c *Conn) Call(ctx context.Context, msgType byte, payload []byte) (Frame, error) {
	ch := make(chan Frame, 1)
	c.mu.Lock()
	if c.closed {
		err := c.reason
		c.mu.Unlock()
		return Frame{}, err
	}
	c.nextReq++
	id := c.nextReq
	c.pending[id] = ch
	c.mu.Unlock()

	forget := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
	if err := c.Send(msgType, id, payload); err != nil {
		forget()
		return Frame{}, err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return Frame{}, c.closeReason()
		}
		return f, nil
	case <-ctx.Done():
		forget()
		return Frame{}, ctx.Err()
	}
}

// Serve reads frames until the connection dies, dispatching Call responses
// by request id and everything else to handler. It returns the error that
// ended the read loop (io.EOF for a clean peer close). Serve must be called
// at most once.
func (c *Conn) Serve(handler Handler) error {
	// A burst of frames the peer's pump flushed together costs one read(2).
	br := bufio.NewReaderSize(c.nc, readBuffer)
	var buf []byte
	for {
		if c.opts.ReadTimeout > 0 {
			if err := c.nc.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout)); err != nil {
				c.closeWith(fmt.Errorf("netx: set deadline: %w", err))
				return err
			}
		}
		var f Frame
		var err error
		f, buf, err = ReadFrame(br, buf)
		if err != nil {
			if st := c.opts.Stats; st != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					st.ReadDeadlineHits.Add(1)
				}
			}
			c.closeWith(fmt.Errorf("netx: read: %w", err))
			return err
		}
		if st := c.opts.Stats; st != nil {
			st.FramesIn.Add(1)
			st.BytesIn.Add(uint64(4 + headerLen + len(f.Payload)))
		}
		if f.ReqID != 0 {
			c.mu.Lock()
			ch, ok := c.pending[f.ReqID]
			if ok {
				delete(c.pending, f.ReqID)
			}
			c.mu.Unlock()
			if ok {
				// The waiter outlives this read iteration; give it its own
				// copy of the payload.
				resp := f
				resp.Payload = append([]byte(nil), f.Payload...)
				ch <- resp
				continue
			}
			// Not one of ours: an inbound request carrying a correlation id
			// (e.g. MsgSubmit) — the handler echoes the id on its response.
		}
		if handler != nil {
			handler(c, f)
		}
	}
}

// closeWith closes the connection once, recording the first reason.
func (c *Conn) closeWith(reason error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.reason = reason
	pending := c.pending
	c.pending = nil
	c.work.Signal()
	c.mu.Unlock()

	c.nc.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// Close tears the connection down; pending Calls fail with ErrClosed.
func (c *Conn) Close() error {
	c.closeWith(ErrClosed)
	<-c.writerDone
	return nil
}

func (c *Conn) closeReason() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reason != nil {
		return c.reason
	}
	return ErrClosed
}

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// ---- Reconnecting client.

// Reconnect backoff: exponential from 50ms, capped at 2s.
const (
	backoffMin = 50 * time.Millisecond
	backoffMax = 2 * time.Second
)

// Client maintains one logical link to a server, redialing with exponential
// backoff whenever the connection drops. Sends while the link is down fail
// fast with ErrNotConnected — the cluster's protocol tolerates a lost
// message the way a real distributed system must, and the e2e harness
// runs on a loopback link that does not drop.
type Client struct {
	addr    string
	opts    Options
	handler Handler
	// onConnect runs on every successful (re)dial before any Send is
	// admitted, e.g. to introduce the peer with a MsgHello.
	onConnect func(*Conn) error

	mu   sync.Mutex
	cond *sync.Cond
	cur  *Conn
	stop bool

	stopCh chan struct{} // closed by Close; unblocks backoff sleeps
	done   chan struct{} // closed when the dial loop exits
}

// DialLoop starts a client for addr. The handler and options apply to every
// underlying connection; onConnect (optional) runs on each established
// connection before it is published for Send/Call.
func DialLoop(addr string, handler Handler, onConnect func(*Conn) error, opts Options) *Client {
	cl := &Client{
		addr:      addr,
		opts:      opts,
		handler:   handler,
		onConnect: onConnect,
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	cl.cond = sync.NewCond(&cl.mu)
	go cl.loop()
	return cl
}

func (cl *Client) loop() {
	defer close(cl.done)
	backoff := backoffMin
	for {
		if cl.stopped() {
			return
		}
		nc, err := net.DialTimeout("tcp", cl.addr, 2*time.Second)
		if err != nil {
			if !cl.sleep(backoff) {
				return
			}
			backoff *= 2
			if backoff > backoffMax {
				backoff = backoffMax
			}
			continue
		}
		conn := NewConn(nc, cl.opts)
		if cl.onConnect != nil {
			if err := cl.onConnect(conn); err != nil {
				conn.Close()
				continue
			}
		}
		cl.mu.Lock()
		if cl.stop {
			cl.mu.Unlock()
			conn.Close()
			return
		}
		cl.cur = conn
		cl.cond.Broadcast()
		cl.mu.Unlock()

		if st := cl.opts.Stats; st != nil {
			st.Connects.Add(1)
		}

		backoff = backoffMin
		conn.Serve(cl.handler) // blocks until the connection dies

		cl.mu.Lock()
		if cl.cur == conn {
			cl.cur = nil
		}
		cl.mu.Unlock()
	}
}

func (cl *Client) stopped() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.stop
}

// sleep waits d or until Close, reporting whether the client is still live.
func (cl *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return !cl.stopped()
	case <-cl.stopCh:
		return false
	}
}

// conn returns the live connection, or nil with ErrNotConnected.
func (cl *Client) conn() (*Conn, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.stop {
		return nil, ErrClosed
	}
	if cl.cur == nil {
		return nil, ErrNotConnected
	}
	return cl.cur, nil
}

// Send queues a frame on the current connection.
func (cl *Client) Send(msgType byte, reqID uint64, payload []byte) error {
	c, err := cl.conn()
	if err != nil {
		return err
	}
	return c.Send(msgType, reqID, payload)
}

// Call performs a request/response round trip on the current connection.
func (cl *Client) Call(ctx context.Context, msgType byte, payload []byte) (Frame, error) {
	c, err := cl.conn()
	if err != nil {
		return Frame{}, err
	}
	return c.Call(ctx, msgType, payload)
}

// WaitConnected blocks until the link is up, the context ends, or the
// client closes.
func (cl *Client) WaitConnected(ctx context.Context) error {
	doneCh := make(chan struct{})
	defer close(doneCh)
	go func() {
		select {
		case <-ctx.Done():
		case <-doneCh:
		}
		cl.cond.Broadcast()
	}()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for cl.cur == nil && !cl.stop && ctx.Err() == nil {
		cl.cond.Wait()
	}
	if cl.cur != nil {
		return nil
	}
	if cl.stop {
		return ErrClosed
	}
	return ctx.Err()
}

// Close stops redialing and tears down the current connection.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.stop {
		cl.mu.Unlock()
		<-cl.done
		return nil
	}
	cl.stop = true
	close(cl.stopCh)
	cur := cl.cur
	cl.cur = nil
	cl.cond.Broadcast()
	cl.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	<-cl.done
	return nil
}
