package flight

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRingEviction(t *testing.T) {
	r := NewRecorder("site 0", 4)
	for i := 0; i < 10; i++ {
		r.RecordFrame(In, "ship", int64(i), None)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := fmt.Sprintf("txn %d", 6+i)
		if got := ev.Detail(); got != want {
			t.Errorf("event %d detail %q, want %q (oldest first)", i, got, want)
		}
	}
	if r.Total() != 10 {
		t.Errorf("total %d, want 10", r.Total())
	}
}

func TestPartialRing(t *testing.T) {
	r := NewRecorder("central", 8)
	r.Record(Out, "reply", "txn 1")
	r.Record(Note, "reconnect", "site 2")
	evs := r.Events()
	if len(evs) != 2 || evs[0].Type != "reply" || evs[1].Type != "reconnect" {
		t.Fatalf("partial ring wrong: %+v", evs)
	}
}

func TestDumpFormat(t *testing.T) {
	r := NewRecorder("site 3", 16)
	r.RecordFrame(In, "auth-req", 42, None)
	r.RecordFrame(Out, "auth-reply", 42, 3)
	r.Recordf(Note, "connect", "uplink to %s", "127.0.0.1:7000")
	var b strings.Builder
	r.Dump(&b)
	out := b.String()
	if !strings.Contains(out, "flight recorder [site 3]: last 3 of 3 events") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "<- auth-req") || !strings.Contains(out, "-> auth-reply") {
		t.Errorf("missing direction markers:\n%s", out)
	}
	// Typed fields are formatted here, not when recorded.
	for _, want := range []string{" txn 42\n", " txn 42 site 3\n", " uplink to 127.0.0.1:7000\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump lacks %q:\n%s", want, out)
		}
	}
}

func TestRecordFrameAllocationFree(t *testing.T) {
	r := NewRecorder("site 1", 8)
	txn := int64(1) << 40 // no small-integer interning to hide a boxed argument
	if n := testing.AllocsPerRun(1000, func() { r.RecordFrame(Out, "ship", txn, 7); txn++ }); n != 0 {
		t.Fatalf("RecordFrame allocates %.1f per call, want 0", n)
	}
}

// TestConcurrentRecord holds under -race.
func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder("x", 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Recordf(Out, "ship", "n=%d", i)
				if i%100 == 0 {
					_ = r.Events()
				}
			}
		}()
	}
	wg.Wait()
	if r.Total() != 4000 {
		t.Errorf("total %d, want 4000", r.Total())
	}
	if len(r.Events()) != 32 {
		t.Errorf("ring %d, want 32", len(r.Events()))
	}
}
