package cluster

import (
	"sync"

	"hybriddb/internal/comm"
	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/netx"
)

// envelope is one received message and where it came from: the connection
// it arrived on and, for a load generator's submission (whose input rides
// as msg.Spec), the request id its result answers.
type envelope struct {
	msg   hybrid.Message
	from  *netx.Conn
	reqID uint64
}

// inbox carries a node's received messages from the read goroutines onto
// its loop: a FIFO of envelopes, each handed to handle on the loop delay
// seconds after it was pushed. A push schedules the one pre-bound delivery
// function rather than a closure per message, and each firing pops the
// front envelope. push holds the ring's lock across Schedule, so timers are
// armed in push order, whichever goroutines pushed: the k-th firing is the
// k-th push's own timer, and every envelope is delivered at its own
// deadline, not at a neighbour's.
type inbox struct {
	loop   *exec.Loop
	delay  float64
	handle func(envelope)
	fire   func() // deliver, bound once

	mu   sync.Mutex
	ring comm.Ring[envelope]
}

func newInbox(loop *exec.Loop, delay float64, handle func(envelope)) *inbox {
	in := &inbox{loop: loop, delay: delay, handle: handle}
	in.fire = in.deliver
	return in
}

// push queues e for delivery. Safe from any goroutine. Loop.Schedule never
// blocks: it appends to the loop's own inbox under the loop's mutex.
func (in *inbox) push(e envelope) {
	in.mu.Lock()
	in.ring.Push(e)
	in.loop.Schedule(in.delay, in.fire)
	in.mu.Unlock()
}

// deliver hands the oldest envelope to handle, on the loop.
func (in *inbox) deliver() {
	in.mu.Lock()
	e := in.ring.Pop()
	in.mu.Unlock()
	in.handle(e)
}
