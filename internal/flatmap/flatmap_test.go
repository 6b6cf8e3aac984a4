package flatmap

import (
	"math/rand"
	"testing"
)

// TestDifferentialAgainstBuiltin drives the flat map and a builtin map with
// the same random operation stream — inserts, overwrites, deletes and takes
// of absent and present keys, lookups — and requires exact agreement after
// every step.
// The key range is kept small relative to the operation count so probe
// chains collide, break, and shift constantly; backward-shift deletion bugs
// show up here as lookups missing displaced entries.
func TestDifferentialAgainstBuiltin(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		m := New[uint32, int](0)
		ref := make(map[uint32]int)
		for op := 0; op < 5000; op++ {
			k := uint32(rng.Intn(300))
			switch rng.Intn(4) {
			case 0:
				v := rng.Int()
				m.Put(k, v)
				ref[k] = v
			case 1:
				got := m.Delete(k)
				_, want := ref[k]
				if got != want {
					t.Fatalf("trial %d op %d: Delete(%d)=%v, want %v", trial, op, k, got, want)
				}
				delete(ref, k)
			case 2:
				got, ok := m.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("trial %d op %d: Get(%d)=(%d,%v), want (%d,%v)", trial, op, k, got, ok, want, wok)
				}
			case 3:
				got, ok := m.Take(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("trial %d op %d: Take(%d)=(%d,%v), want (%d,%v)", trial, op, k, got, ok, want, wok)
				}
				delete(ref, k)
			}
			if m.Len() != len(ref) {
				t.Fatalf("trial %d op %d: Len=%d, want %d", trial, op, m.Len(), len(ref))
			}
		}
		// Full sweep: every reference entry must be reachable, and Range
		// must visit exactly the reference set.
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("trial %d final: Get(%d)=(%d,%v), want (%d,true)", trial, k, got, ok, want)
			}
		}
		seen := make(map[uint32]int)
		m.Range(func(k uint32, v int) bool {
			seen[k] = v
			return true
		})
		if len(seen) != len(ref) {
			t.Fatalf("trial %d: Range visited %d entries, want %d", trial, len(seen), len(ref))
		}
	}
}

// TestNegativeKeys pins the hash on signed keys: negative int64 keys must
// round-trip (the conversion to uint64 is well-defined two's complement).
func TestNegativeKeys(t *testing.T) {
	m := New[int64, string](4)
	m.Put(-1, "a")
	m.Put(-(1 << 40), "b")
	m.Put(7, "c")
	for k, want := range map[int64]string{-1: "a", -(1 << 40): "b", 7: "c"} {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("Get(%d)=(%q,%v), want (%q,true)", k, got, ok, want)
		}
	}
}

// TestSteadyStateAllocFree: once grown to its high-water population, a
// delete+insert or take+insert churn cycle allocates nothing — the property
// the lock manager's per-transaction tables and a site's parked table rely
// on.
func TestSteadyStateAllocFree(t *testing.T) {
	m := New[int64, int](0)
	for i := int64(0); i < 1000; i++ {
		m.Put(i, int(i))
	}
	i := int64(0)
	if got := testing.AllocsPerRun(2000, func() {
		m.Delete(i)
		m.Put(i+1000, int(i))
		i++
	}); got != 0 {
		t.Errorf("churn cycle allocates %v times per run, want 0", got)
	}
	if got := testing.AllocsPerRun(2000, func() {
		if v, ok := m.Take(i); !ok || v != int(i-1000) {
			t.Fatalf("Take(%d) = (%d, %v), want (%d, true)", i, v, ok, i-1000)
		}
		m.Put(i+1000, int(i))
		i++
	}); got != 0 {
		t.Errorf("take+insert cycle allocates %v times per run, want 0", got)
	}
}
