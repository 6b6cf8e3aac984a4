package comm

import (
	"testing"
	"testing/quick"

	"hybriddb/internal/sim"
)

func TestDeliveryDelay(t *testing.T) {
	s := sim.New()
	l := NewLink(s, 0.2)
	var at float64 = -1
	s.Schedule(1, func() { l.Send(func() { at = s.Now() }) })
	s.Run()
	if at != 1.2 {
		t.Fatalf("delivered at %v, want 1.2", at)
	}
}

func TestFIFOOrdering(t *testing.T) {
	s := sim.New()
	l := NewLink(s, 0.5)
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		l.Send(func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
}

func TestFIFOAcrossSendTimes(t *testing.T) {
	s := sim.New()
	l := NewLink(s, 0.5)
	var order []int
	s.Schedule(0, func() { l.Send(func() { order = append(order, 1) }) })
	s.Schedule(0.1, func() { l.Send(func() { order = append(order, 2) }) })
	s.Schedule(0.2, func() { l.Send(func() { order = append(order, 3) }) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestCounters(t *testing.T) {
	s := sim.New()
	l := NewLink(s, 1)
	l.Send(func() {})
	l.Send(func() {})
	if l.Sent() != 2 || l.Delivered() != 0 || l.InFlight() != 2 {
		t.Fatalf("counters: sent=%d delivered=%d inflight=%d", l.Sent(), l.Delivered(), l.InFlight())
	}
	s.Run()
	if l.Delivered() != 2 || l.InFlight() != 0 {
		t.Fatalf("after run: delivered=%d inflight=%d", l.Delivered(), l.InFlight())
	}
}

func TestZeroDelayLink(t *testing.T) {
	s := sim.New()
	l := NewLink(s, 0)
	ran := false
	l.Send(func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("zero-delay message not delivered")
	}
}

func TestInvalidLink(t *testing.T) {
	for _, f := range []func(){
		func() { NewLink(nil, 1) },
		func() { NewLink(sim.New(), -1) },
		func() { NewLink(sim.New(), 1).Send(nil) },
		func() { NewLinkOf[int](sim.New(), 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid use did not panic")
				}
			}()
			f()
		}()
	}
}

// TestValueLinkNeverDrained runs a link of plain values that always has
// messages in flight — one sent every 0.1 s, each delivered 1 s later — so
// its ring never empties and rewinds. Delivery stays FIFO, InFlight tracks
// the backlog, and the ring folds its live tail back to the front instead of
// growing with every message sent.
func TestValueLinkNeverDrained(t *testing.T) {
	s := sim.New()
	const n = 5000
	var got []int
	var l *LinkOf[int]
	maxLen := 0
	l = NewLinkOf(s, 1, func(v int) {
		if v < n-20 && l.InFlight() == 0 {
			t.Fatalf("the link drained at message %d", v)
		}
		maxLen = max(maxLen, len(l.pending.buf))
		got = append(got, v)
	})
	sent := 0
	var tick func()
	tick = func() {
		l.Send(sent)
		if sent++; sent < n {
			s.Schedule(0.1, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run()
	if len(got) != n || l.InFlight() != 0 || l.Delivered() != n {
		t.Fatalf("delivered %d (counter %d) of %d, %d in flight", len(got), l.Delivered(), n, l.InFlight())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d carried message %d", i, v)
		}
	}
	if maxLen > 128 {
		t.Errorf("the ring grew to %d entries for ~10 in flight: it never folded", maxLen)
	}
}

func TestNetworkTopology(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s, 3, 0.2)
	if n.Sites() != 3 {
		t.Fatalf("sites = %d", n.Sites())
	}
	if n.Delay() != 0.2 {
		t.Fatalf("delay = %v", n.Delay())
	}
	var got []string
	n.ToCentral(0, func() { got = append(got, "up0") })
	n.ToSite(2, func() { got = append(got, "down2") })
	s.Run()
	if len(got) != 2 {
		t.Fatalf("deliveries = %v", got)
	}
	if n.MessagesSent() != 2 || n.MessagesInFlight() != 0 {
		t.Fatalf("sent=%d inflight=%d", n.MessagesSent(), n.MessagesInFlight())
	}
}

func TestNetworkInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-site network did not panic")
		}
	}()
	NewNetwork(sim.New(), 0, 0.2)
}

// TestQuickFIFO sends messages at arbitrary nondecreasing times and verifies
// per-link FIFO delivery regardless of the send schedule.
func TestQuickFIFO(t *testing.T) {
	f := func(gaps []uint8) bool {
		s := sim.New()
		l := NewLink(s, 0.3)
		var order []int
		at := 0.0
		for i, g := range gaps {
			at += float64(g) / 100
			i := i
			s.ScheduleAt(at, func() { l.Send(func() { order = append(order, i) }) })
		}
		s.Run()
		if len(order) != len(gaps) {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSendInsideDelivery exercises the reentrant pattern every protocol leg
// uses: a delivery callback sending the next message on another link. The
// reply must arrive exactly one delay after the request's delivery.
func TestSendInsideDelivery(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s, 1, 0.2)
	var replyAt float64 = -1
	s.Schedule(1, func() {
		n.ToCentral(0, func() {
			// At the central site, 1.2: answer immediately.
			n.ToSite(0, func() { replyAt = s.Now() })
		})
	})
	s.Run()
	if replyAt != 1.4 {
		t.Fatalf("round trip delivered at %v, want 1.4 (two one-way delays after send)", replyAt)
	}
}

// TestPerLinkFIFOIndependence checks that FIFO holds per link, not
// globally: a later send on a faster link overtakes an earlier send on a
// slower one, while each link's own order is preserved.
func TestPerLinkFIFOIndependence(t *testing.T) {
	s := sim.New()
	slow := NewLink(s, 1.0)
	fast := NewLink(s, 0.1)
	var order []string
	slow.Send(func() { order = append(order, "slow1") })
	slow.Send(func() { order = append(order, "slow2") })
	fast.Send(func() { order = append(order, "fast1") })
	fast.Send(func() { order = append(order, "fast2") })
	s.Run()
	want := []string{"fast1", "fast2", "slow1", "slow2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (per-link FIFO, cross-link overtaking)", order, want)
		}
	}
}

// TestSameInstantDeliveriesKeepScheduleOrder pins the tie-break the package
// comment relies on: messages sent at the same instant on different links
// with equal delay are delivered in scheduling (send) order.
func TestSameInstantDeliveriesKeepScheduleOrder(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s, 3, 0.5)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		n.ToCentral(i, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant deliveries reordered: %v", order)
		}
	}
}

// TestNetworkInFlightDuringExchange tracks the in-flight gauge through a
// request/reply exchange, the quantity the engine samples for its
// message-level observability.
func TestNetworkInFlightDuringExchange(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s, 2, 0.3)
	n.ToCentral(0, func() {
		if got := n.MessagesInFlight(); got != 0 {
			t.Errorf("in flight at delivery = %d, want 0", got)
		}
		n.ToSite(0, func() {})
		n.ToSite(1, func() {})
		if got := n.MessagesInFlight(); got != 2 {
			t.Errorf("in flight after fan-out = %d, want 2", got)
		}
	})
	if got := n.MessagesInFlight(); got != 1 {
		t.Fatalf("in flight before run = %d, want 1", got)
	}
	s.Run()
	if n.MessagesSent() != 3 || n.MessagesInFlight() != 0 {
		t.Fatalf("after run: sent=%d inflight=%d, want 3/0", n.MessagesSent(), n.MessagesInFlight())
	}
}

// TestZeroDelaySendInsideDeliveryRunsSameInstant checks a zero-delay link
// delivers a message sent from inside a delivery at the same simulated
// instant, after the events already scheduled for that instant (the
// kernel's same-time tie-break is scheduling order).
func TestZeroDelaySendInsideDeliveryRunsSameInstant(t *testing.T) {
	s := sim.New()
	l := NewLink(s, 0)
	var order []string
	s.Schedule(1, func() {
		l.Send(func() {
			order = append(order, "chained")
			if s.Now() != 1 {
				t.Errorf("chained delivery at %v, want 1", s.Now())
			}
		})
		order = append(order, "sender")
	})
	s.Schedule(1, func() { order = append(order, "peer") })
	s.Run()
	want := []string{"sender", "peer", "chained"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
