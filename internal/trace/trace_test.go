package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKindStrings(t *testing.T) {
	for k := Arrive; k <= ReplyDelivered; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "Kind(") {
		t.Error("unknown kind not flagged")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1.5, Kind: LockGranted, Txn: 42, Site: 3, Elem: 7}
	s := e.String()
	for _, want := range []string{"lock-granted", "site 3", "txn 42", "elem 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	central := Event{At: 2, Kind: CommitCentral, Txn: 1, Site: -1}
	if !strings.Contains(central.String(), "central") {
		t.Errorf("central event string %q", central.String())
	}
}

func TestRingRetainsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Record(Event{Txn: int64(i)})
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events, want 3", len(events))
	}
	for i, want := range []int64{3, 4, 5} {
		if events[i].Txn != want {
			t.Fatalf("events = %v, want txns 3,4,5", events)
		}
	}
	if r.Recorded() != 5 {
		t.Errorf("Recorded = %d, want 5", r.Recorded())
	}
}

func TestRingUnderCapacity(t *testing.T) {
	r := NewRing(10)
	r.Record(Event{Txn: 1})
	r.Record(Event{Txn: 2})
	events := r.Events()
	if len(events) != 2 || events[0].Txn != 1 || events[1].Txn != 2 {
		t.Fatalf("events = %v", events)
	}
}

func TestRingFilterTxn(t *testing.T) {
	r := NewRing(10)
	r.FilterTxn(7)
	r.Record(Event{Txn: 7, Kind: Arrive})
	r.Record(Event{Txn: 8, Kind: Arrive})
	r.Record(Event{Txn: 7, Kind: CommitLocal})
	if got := len(r.Events()); got != 2 {
		t.Fatalf("filtered events = %d, want 2", got)
	}
}

func TestRingDump(t *testing.T) {
	r := NewRing(4)
	r.Record(Event{At: 1, Kind: Arrive, Txn: 9, Site: 0})
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "arrive") {
		t.Errorf("dump output %q", sb.String())
	}
}

func TestRingInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewRing(0)
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Record(Event{Kind: Arrive})
	c.Record(Event{Kind: Arrive})
	c.Record(Event{Kind: CommitLocal})
	if c.Count(Arrive) != 2 || c.Count(CommitLocal) != 1 || c.Count(Rerun) != 0 {
		t.Errorf("counts wrong: %d %d %d", c.Count(Arrive), c.Count(CommitLocal), c.Count(Rerun))
	}
	if c.Total() != 3 {
		t.Errorf("total = %d", c.Total())
	}
}

// TestQuickRingOrder verifies the ring always returns the most recent
// min(n, capacity) events in record order.
func TestQuickRingOrder(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		r := NewRing(capacity)
		total := int(n % 64)
		for i := 0; i < total; i++ {
			r.Record(Event{Txn: int64(i)})
		}
		events := r.Events()
		want := total
		if want > capacity {
			want = capacity
		}
		if len(events) != want {
			return false
		}
		for i, e := range events {
			if e.Txn != int64(total-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
