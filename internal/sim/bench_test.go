package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkScheduleStep measures steady-state churn: a rolling window of
// pending events with one Schedule and one Step per iteration. This is the
// kernel's hot path in the hybrid engine, where every CPU burst, I/O, and
// message completion schedules a successor.
func BenchmarkScheduleStep(b *testing.B) {
	s := New()
	action := func() {}
	const window = 256
	for i := 0; i < window; i++ {
		s.Schedule(float64(i%97)+1, action)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(float64(i%97)+1, action)
		s.Step()
	}
}

// BenchmarkScheduleCancel measures the cancellation path: every scheduled
// event is removed from the middle of a standing window.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	action := func() {}
	const window = 256
	for i := 0; i < window; i++ {
		s.Schedule(float64(i%97)+1, action)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(float64(i%89)+1, action)
		if !s.Cancel(e) {
			b.Fatal("pending event failed to cancel")
		}
	}
}

// holdSizes are the standing populations of the classic hold model. The
// hybrid engine keeps roughly one pending event per busy resource, so the
// small sizes are the realistic regime and the large one is the high-density
// stress (a thousand sites keep a deep heap).
var holdSizes = []struct {
	name string
	n    int
}{
	{"n256", 256},
	{"n4096", 4096},
	{"n65536", 65536},
}

// holdIncrements precomputes an exponential(1) increment stream so the RNG
// cost stays out of the timed loop.
func holdIncrements(n int) []Time {
	rng := rand.New(rand.NewSource(12345))
	incs := make([]Time, n)
	for i := range incs {
		incs[i] = Time(rng.ExpFloat64())
	}
	return incs
}

// The ping-pong shape of cross-shard traffic: 64 chains bounce between two
// shards, each delivery posting the next message one lookahead later on the
// opposite edge, so every chain delivers one message per lookahead of
// simulated time. Both functions run about msgs messages and return the
// number delivered, counted per receiving shard (each count is written by
// one shard's worker only).
const pingLookahead, pingChains = 0.2, 64

// pingPongHorizon is the horizon at which the chains have delivered about
// msgs messages.
func pingPongHorizon(msgs int) Time { return Time(msgs) / pingChains * pingLookahead }

// pingPongFunc runs the shape on a callback Group: every message is the
// closure that posts the next one.
func pingPongFunc(msgs int) int {
	shards := []*Simulator{New(), New()}
	g := NewGroup(shards, 2, pingLookahead)
	g.SetWatchdog(0)
	var delivered [2]int
	var bounce [2]func()
	for side := 0; side < 2; side++ {
		side := side
		bounce[side] = func() {
			delivered[side]++
			g.Post(side, 1-side, side, shards[side].Now()+pingLookahead, bounce[1-side])
		}
	}
	for c := 0; c < pingChains; c++ {
		shards[c&1].Schedule(Time(c)*pingLookahead/pingChains, bounce[c&1])
	}
	g.Run(pingPongHorizon(msgs))
	return delivered[0] + delivered[1] - pingChains // the chains' first events are not deliveries
}

// pingPongValue runs the shape on a GroupOf[int]: every message is the
// index of the shard it is bound for, and the receive function posts the
// next one back.
func pingPongValue(msgs int) int {
	shards := []*Simulator{New(), New()}
	var delivered [2]int
	var g *GroupOf[int]
	send := func(side int) {
		g.Post(side, 1-side, side, shards[side].Now()+pingLookahead, 1-side)
	}
	g = NewGroupOf(shards, 2, pingLookahead, func(_ int, side int) {
		delivered[side]++
		send(side)
	})
	g.SetWatchdog(0)
	for c := 0; c < pingChains; c++ {
		side := c & 1
		shards[side].Schedule(Time(c)*pingLookahead/pingChains, func() { send(side) })
	}
	g.Run(pingPongHorizon(msgs))
	return delivered[0] + delivered[1]
}

// BenchmarkGroupPost measures one cross-shard message end to end — Post, the
// merge between rounds, and delivery — on the ping-pong shape, per message:
// "func" on the callback Group, "value" on a GroupOf[int].
func BenchmarkGroupPost(b *testing.B) {
	for _, bc := range []struct {
		name string
		run  func(msgs int) int
	}{{"func", pingPongFunc}, {"value", pingPongValue}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			bc.run(b.N)
		})
	}
}

// BenchmarkHoldHeap runs the hold model on the Simulator's slab/4-ary-heap
// kernel: pop the minimum, reschedule at popped-time + exp(1).
func BenchmarkHoldHeap(b *testing.B) {
	incs := holdIncrements(1 << 16)
	for _, size := range holdSizes {
		b.Run(size.name, func(b *testing.B) {
			s := New()
			action := func() {}
			for i := 0; i < size.n; i++ {
				s.Schedule(incs[i%len(incs)], action)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
				s.Schedule(incs[i%len(incs)], action)
			}
		})
	}
}
