package cluster

import (
	"sync"
	"testing"
	"time"

	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid"
)

// TestInboxOrderAndDelay pushes from two goroutines at once (run it under
// -race): each producer's messages arrive in the order it pushed them, and
// none is delivered before its delay has passed since its push.
func TestInboxOrderAndDelay(t *testing.T) {
	for _, delay := range []float64{0, 2e-4} {
		l := exec.NewLoop()
		const producers, n = 2, 2000
		var got [producers][]int64 // loop-confined
		early, total := 0, 0
		done := make(chan struct{})
		in := newInbox(l, delay, func(e envelope) {
			if l.Now() < e.msg.Snap.At+delay {
				early++
			}
			got[e.msg.Site] = append(got[e.msg.Site], e.msg.Txn)
			if total++; total == producers*n {
				close(done)
			}
		})
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					// Snap.At carries the push instant to the handler.
					in.push(envelope{msg: hybrid.Message{Site: p, Txn: int64(i), Snap: hybrid.Snapshot{At: l.Now()}}})
				}
			}(p)
		}
		wg.Wait()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("delay %v: %d of %d messages delivered", delay, total, producers*n)
		}
		l.Stop()
		for p, txns := range got {
			for i, txn := range txns {
				if txn != int64(i) {
					t.Fatalf("delay %v: producer %d's message %d arrived as number %d", delay, p, txn, i)
				}
			}
		}
		if early != 0 {
			t.Errorf("delay %v: %d messages delivered before their delay had passed", delay, early)
		}
	}
}

// TestInboxAllocationFree: once its ring and the loop's calendar are warm, a
// push and its delivery allocate nothing, on the post path and the timer
// path alike.
func TestInboxAllocationFree(t *testing.T) {
	for _, delay := range []float64{0, 1e-6} {
		l := exec.NewLoop()
		ack := make(chan struct{}, 1)
		in := newInbox(l, delay, func(envelope) { ack <- struct{}{} })
		cycle := func() {
			in.push(envelope{msg: hybrid.Message{Kind: hybrid.MsgRelease, Txn: 1}})
			<-ack
		}
		for i := 0; i < 100; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(500, cycle); n != 0 {
			t.Errorf("delay %v: push+deliver allocates %.2f times, want 0", delay, n)
		}
		l.Stop()
	}
}
