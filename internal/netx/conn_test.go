package netx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer accepts connections and answers every MsgSubmit frame with a
// MsgResult frame carrying the same request id and payload.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []*Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := NewConn(nc, Options{})
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn.Serve(func(c *Conn, f Frame) {
					payload := append([]byte(nil), f.Payload...)
					c.Send(MsgResult, f.ReqID, payload)
				})
				conn.Close()
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

func TestConnCallRoundTrip(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc, Options{})
	defer conn.Close()
	go conn.Serve(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		want := []byte{byte(i), byte(i >> 8), 0xCC}
		f, err := conn.Call(ctx, MsgSubmit, want)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if f.Type != MsgResult || string(f.Payload) != string(want) {
			t.Fatalf("call %d: got %v", i, f)
		}
	}
}

func TestConnConcurrentCallsCorrelate(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc, Options{})
	defer conn.Close()
	go conn.Serve(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				want := []byte{byte(g), byte(i)}
				f, err := conn.Call(ctx, MsgSubmit, want)
				if err != nil {
					errs <- err
					return
				}
				if string(f.Payload) != string(want) {
					errs <- errors.New("response correlated to the wrong call")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConnCallFailsOnClose(t *testing.T) {
	client, server := net.Pipe()
	conn := NewConn(client, Options{})
	go conn.Serve(nil)
	done := make(chan error, 1)
	go func() {
		_, err := conn.Call(context.Background(), MsgSubmit, []byte("x"))
		done <- err
	}()
	// Swallow the request, then kill the link with the call pending.
	buf := make([]byte, 64)
	server.Read(buf)
	server.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded on a dead connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed by connection death")
	}
	conn.Close()
}

func TestConnReadTimeoutDropsSilentLink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			// Hold the connection open without ever writing.
			defer nc.Close()
			time.Sleep(3 * time.Second)
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc, Options{ReadTimeout: 50 * time.Millisecond})
	defer conn.Close()
	served := make(chan error, 1)
	go func() { served <- conn.Serve(nil) }()
	select {
	case err := <-served:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("serve ended with %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read deadline never fired")
	}
}

func TestConnSendQueueBackpressureKills(t *testing.T) {
	// A peer that never reads: the kernel buffers fill, the pump blocks,
	// and the tiny send queue overflows — the connection must die rather
	// than block the sender.
	client, server := net.Pipe() // net.Pipe has no buffering at all
	defer server.Close()
	conn := NewConn(client, Options{SendQueue: 4})
	defer conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := conn.Send(MsgUpdate, 0, []byte("payload")); err != nil {
			if !errors.Is(err, ErrSendQueueFull) {
				t.Fatalf("got %v, want ErrSendQueueFull", err)
			}
			return
		}
	}
	t.Fatal("send queue never overflowed against a stalled peer")
}

func TestClientReconnects(t *testing.T) {
	addr, stop := echoServer(t)

	var mu sync.Mutex
	var hellos int
	cl := DialLoop(addr, nil, func(c *Conn) error {
		mu.Lock()
		hellos++
		mu.Unlock()
		return nil
	}, Options{})
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.WaitConnected(ctx); err != nil {
		t.Fatalf("first connect: %v", err)
	}
	if _, err := cl.Call(ctx, MsgSubmit, []byte("a")); err != nil {
		t.Fatalf("call on first connection: %v", err)
	}

	// Kill the server; the link drops and sends fail fast. Wait for the
	// client to drop the dead connection, not just for a failed send: until
	// it does, WaitConnected still reports the dead one.
	stop()
	for {
		if err := cl.Send(MsgSubmit, 0, nil); errors.Is(err, ErrNotConnected) {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("link never observed the server death")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart a server on the same address; the client must redial.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := NewConn(nc, Options{})
			go conn.Serve(func(c *Conn, f Frame) {
				c.Send(MsgResult, f.ReqID, append([]byte(nil), f.Payload...))
			})
		}
	}()
	if err := cl.WaitConnected(ctx); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if _, err := cl.Call(ctx, MsgSubmit, []byte("b")); err != nil {
		t.Fatalf("call after reconnect: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hellos < 2 {
		t.Fatalf("onConnect ran %d times, want >= 2 (reconnect)", hellos)
	}
}

func TestClientCloseWhileBackingOff(t *testing.T) {
	// No listener: the client sits in its dial/backoff loop. Close must
	// return promptly anyway.
	cl := DialLoop("127.0.0.1:1", nil, nil, Options{})
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() { cl.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung during backoff")
	}
	if err := cl.Send(MsgSubmit, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, _ := ln.Accept()
		accepted <- nc
	}()
	cn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sn := <-accepted
	if sn == nil {
		t.Fatal("accept failed")
	}
	return cn, sn
}

// writeCounter is a net.Conn that is not a *net.TCPConn, counting Writes.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// stallPayload × 1024 frames = 32 MiB, beyond any socket buffer autotuning.
const stallPayload = 32 << 10

// readFrames reads n frames from nc and checks they carry request ids 1..n
// in order.
func readFrames(nc net.Conn, n int) error {
	br := bufio.NewReader(nc)
	var buf []byte
	for i := 1; i <= n; i++ {
		var f Frame
		var err error
		if f, buf, err = ReadFrame(br, buf); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		if f.ReqID != uint64(i) {
			return fmt.Errorf("frame %d arrived with request id %d", i, f.ReqID)
		}
	}
	return nil
}

func TestConnBatchesFramesQueuedBehindAStalledPeer(t *testing.T) {
	cn, sn := tcpPair(t)
	defer sn.Close()
	// A burst several times what the kernel will buffer for a loopback
	// connection nobody reads: the pump's first writes stall there while the
	// rest of the burst queues behind them.
	const n = 1024
	var st Stats
	conn := NewConn(cn, Options{SendQueue: n, Stats: &st})
	defer conn.Close()
	payload := make([]byte, stallPayload)
	for i := 1; i <= n; i++ {
		if err := conn.Send(MsgUpdate, uint64(i), payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Only now does the peer start reading.
	if err := readFrames(sn, n); err != nil {
		t.Fatal(err)
	}
	if got := st.FramesOut.Load(); got != n {
		t.Fatalf("FramesOut = %d, want %d", got, n)
	}
	if fl := st.Flushes.Load(); fl == 0 || fl >= n {
		t.Fatalf("%d flushes for %d frames queued behind a stalled peer, want fewer", fl, n)
	}
}

// TestConnWrapperGetsOneWritePerFrame pins the standard library's contract
// that net.Buffers.WriteTo, handed anything but a connection it can writev
// on, issues one Write per buffer. bench/hybridbench (frozen) counts writes
// through such a wrapper — its TestCountingConnCountsFrames expects 250
// Writes for 250 frames and its netx.writes_per_frame probe reads the same
// counter — so a batched flush must still reach a wrapper frame by frame.
// Stats.Flushes is where the batching shows.
func TestConnWrapperGetsOneWritePerFrame(t *testing.T) {
	cn, sn := tcpPair(t)
	defer sn.Close()
	const n = 1024
	wrapped := &writeCounter{Conn: cn}
	var st Stats
	conn := NewConn(wrapped, Options{SendQueue: n, Stats: &st})
	defer conn.Close()
	payload := make([]byte, stallPayload)
	for i := 1; i <= n; i++ {
		if err := conn.Send(MsgUpdate, uint64(i), payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := readFrames(sn, n); err != nil {
		t.Fatal(err)
	}
	// Every frame read implies its Write returned or is returning; Close
	// waits for the pump.
	conn.Close()
	if w := wrapped.writes.Load(); w != n {
		t.Fatalf("%d Writes for %d frames through a wrapper", w, n)
	}
	if fl := st.Flushes.Load(); fl >= n {
		t.Fatalf("%d flushes for %d frames: the burst was not batched", fl, n)
	}
}

func TestConnKilledAtExactlySendQueueUnwrittenFrames(t *testing.T) {
	client, server := net.Pipe() // unbuffered: nothing is ever written
	defer server.Close()
	const limit = 8
	var st Stats
	conn := NewConn(client, Options{SendQueue: limit, Stats: &st})
	for i := 0; i < limit; i++ {
		if err := conn.Send(MsgUpdate, 0, []byte("payload")); err != nil {
			t.Fatalf("send %d of %d refused: %v", i+1, limit, err)
		}
	}
	if d := st.SendQueueDepth.Load(); d != limit {
		t.Fatalf("SendQueueDepth = %d with %d frames unwritten", d, limit)
	}
	if k := st.QueueFullKills.Load(); k != 0 {
		t.Fatalf("killed before the bound: QueueFullKills = %d", k)
	}
	if err := conn.Send(MsgUpdate, 0, []byte("payload")); !errors.Is(err, ErrSendQueueFull) {
		t.Fatalf("send %d: got %v, want ErrSendQueueFull", limit+1, err)
	}
	if k := st.QueueFullKills.Load(); k != 1 {
		t.Fatalf("QueueFullKills = %d, want 1", k)
	}
	if err := conn.Send(MsgUpdate, 0, nil); !errors.Is(err, ErrSendQueueFull) {
		t.Fatalf("send on the killed connection: %v", err)
	}
	conn.Close()
	if d := st.SendQueueDepth.Load(); d != 0 {
		t.Fatalf("SendQueueDepth = %d after Close, want 0", d)
	}
	if st.FramesOut.Load() != limit {
		t.Fatalf("FramesOut = %d, want %d", st.FramesOut.Load(), limit)
	}
}

func TestConnCloseWithFramesQueued(t *testing.T) {
	before := runtime.NumGoroutine()
	client, server := net.Pipe()
	defer server.Close()
	wrapped := &writeCounter{Conn: client}
	conn := NewConn(wrapped, Options{})
	for i := 0; i < 100; i++ {
		if err := conn.Send(MsgUpdate, 0, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the pump to be inside its first Write, stalled on the pipe.
	for wrapped.writes.Load() == 0 {
		runtime.Gosched()
	}
	closed := make(chan struct{})
	go func() { conn.Close(); close(closed) }()
	select {
	case <-closed: // Close waits for the pump goroutine, so it has exited
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with frames queued")
	}
	attempted := wrapped.writes.Load()
	time.Sleep(20 * time.Millisecond)
	if w := wrapped.writes.Load(); w != attempted {
		t.Fatalf("%d Writes after Close returned", w-attempted)
	}
	// One stalled Write — or one flush of what had queued by then, each frame
	// failing on the closed pipe — never the whole backlog frame by frame
	// after the first error.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after Close", before, n)
	}
}

// pipelined sends n frames over loopback TCP to a reader that discards them,
// at most window frames ahead of it.
type pipelined struct {
	conn     *Conn
	peer     net.Conn
	received atomic.Int64
	sent     int64
	payload  []byte
}

func newPipelined(t testing.TB) *pipelined {
	cn, sn := tcpPair(t)
	p := &pipelined{conn: NewConn(cn, Options{}), peer: sn, payload: make([]byte, 71)} // an average protocol frame
	go func() {
		br := bufio.NewReader(sn)
		var buf []byte
		var err error
		for err == nil {
			if _, buf, err = ReadFrame(br, buf); err == nil {
				p.received.Add(1)
			}
		}
	}()
	return p
}

func (p *pipelined) send(t testing.TB) {
	const window = 512 // stay well inside the 1024-frame send queue
	for p.sent-p.received.Load() >= window {
		runtime.Gosched()
	}
	if err := p.conn.Send(MsgSubmit, 0, p.payload); err != nil {
		t.Fatal(err)
	}
	p.sent++
}

func (p *pipelined) close() {
	p.conn.Close()
	p.peer.Close()
}

func TestConnSendAllocationFreeInSteadyState(t *testing.T) {
	p := newPipelined(t)
	defer p.close()
	for i := 0; i < 2000; i++ { // fill the buffer free list and the pump's slices
		p.send(t)
	}
	// AllocsPerRun counts the pump and reader goroutines' allocations too.
	if n := testing.AllocsPerRun(5000, func() { p.send(t) }); n != 0 {
		t.Fatalf("Send allocates %.2f per frame in steady state, want 0", n)
	}
}

func BenchmarkConnSendPipelined(b *testing.B) {
	p := newPipelined(b)
	defer p.close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.send(b)
	}
	for p.received.Load() < p.sent {
		runtime.Gosched()
	}
}
