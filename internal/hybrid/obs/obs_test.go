package obs

import "testing"

// detailFunc is a Func that also opts into the detail stream.
type detailFunc struct{ f func(Event) }

func (d detailFunc) OnEvent(e Event)  { d.f(e) }
func (d detailFunc) WantDetail() bool { return true }

func TestBusZeroValueDropsEverything(t *testing.T) {
	var b Bus
	if b.HasDetail() {
		t.Fatal("empty bus reports detail observers")
	}
	// Must not panic.
	b.Emit(Event{Kind: TxnArrive})
	b.EmitDetail(Event{Kind: TraceDetail})
	b.Subscribe(nil)
	b.Emit(Event{Kind: TxnArrive})
}

func TestBusFanOut(t *testing.T) {
	var b Bus
	var got1, got2 []Kind
	b.Subscribe(Func(func(e Event) { got1 = append(got1, e.Kind) }))
	b.Subscribe(Func(func(e Event) { got2 = append(got2, e.Kind) }))
	b.Emit(Event{Kind: TxnArrive})
	b.Emit(Event{Kind: TxnReply})
	want := []Kind{TxnArrive, TxnReply}
	for _, got := range [][]Kind{got1, got2} {
		if len(got) != len(want) {
			t.Fatalf("observer saw %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("observer saw %v, want %v", got, want)
			}
		}
	}
}

func TestDetailRouting(t *testing.T) {
	var b Bus
	var plain, detail int
	b.Subscribe(Func(func(Event) { plain++ }))
	if b.HasDetail() {
		t.Fatal("plain observer counted as detail observer")
	}
	b.Subscribe(detailFunc{func(Event) { detail++ }})
	if !b.HasDetail() {
		t.Fatal("detail observer not detected")
	}
	b.Emit(Event{Kind: TxnArrive})         // both
	b.EmitDetail(Event{Kind: TraceDetail}) // detail only
	if plain != 1 {
		t.Errorf("plain observer got %d events, want 1", plain)
	}
	if detail != 2 {
		t.Errorf("detail observer got %d events, want 2", detail)
	}
}

// TestCountsSplitArrivals: Add counts every kind in its own slot, except
// TxnArrive, which it splits by class and route; the derived sums read the
// split back.
func TestCountsSplitArrivals(t *testing.T) {
	var c Counts
	for _, ev := range []Event{
		{Kind: TxnArrive}, {Kind: TxnArrive},
		{Kind: TxnArrive, Shipped: true},
		{Kind: TxnArrive, ClassB: true, Shipped: true},
		{Kind: TxnLocalCommit}, {Kind: TxnReply}, {Kind: ColdFetch},
	} {
		c.Add(ev)
	}
	if c[TxnArrive] != 2 || c[ArriveShipA] != 1 || c[ArriveB] != 1 {
		t.Errorf("arrivals local/ship/B = %d/%d/%d, want 2/1/1", c[TxnArrive], c[ArriveShipA], c[ArriveB])
	}
	if c.Arrivals() != 4 || c.Shipped() != 2 || c.Completed() != 2 || c[ColdFetch] != 1 {
		t.Errorf("arrivals %d shipped %d completed %d cold %d, want 4 2 2 1",
			c.Arrivals(), c.Shipped(), c.Completed(), c[ColdFetch])
	}
}

// TestSamplesSplitCompletions: every completion adds to RTAll and to exactly
// one class row, a queue sample to both queue rows, and only class A arrivals
// carry a view age.
func TestSamplesSplitCompletions(t *testing.T) {
	var m Moments
	for _, ev := range []Event{
		{Kind: TxnLocalCommit, Value: 1}, {Kind: TxnReply, Value: 2}, {Kind: TxnReply, ClassB: true, Value: 3},
		{Kind: TxnArrive, Value: 4}, {Kind: TxnArrive, ClassB: true, Shipped: true, Value: 5},
		{Kind: LockWaitEnd, Value: 6}, {Kind: QueueSample, Value: 7, Aux: 8}, {Kind: AuthRound, Value: 9},
	} {
		s, n := Samples(ev)
		for _, x := range s[:n] {
			m[x.Dist].Add(x.Value)
		}
	}
	for r, want := range [NumDists][2]float64{
		RTAll: {3, 2}, RTLocalA: {1, 1}, RTShippedA: {1, 2}, RTClassB: {1, 3},
		LockWait: {1, 6}, ViewAge: {1, 4}, CentralQueue: {1, 7}, LocalQueue: {1, 8},
	} {
		if got := [2]float64{float64(m[r].Count()), m[r].Mean()}; got != want {
			t.Errorf("row %d: count, mean = %v, want %v", r, got, want)
		}
	}
	h := NewRTHists()
	for r, row := range Dists {
		if (h[r] != nil) != row.Hist {
			t.Errorf("row %d: histogram %v, table says %v", r, h[r] != nil, row.Hist)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := MeasureStart; k <= TraceDetail; k++ {
		if s := k.String(); s == "" || s == "Kind(?)" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "Kind(?)" {
		t.Errorf("unknown kind = %q", Kind(0).String())
	}
}
