package model

import (
	"math"
	"math/bits"
)

// RaceMemo caches raceLossProbability results for the dynamic routing
// strategies, which solve the state model twice per class A arrival. The
// integral's arguments are functions of a few small integers (transaction and
// lock counts), so a run asks for the same values over and over: 270,308
// integrals over 4,349 distinct argument pairs in a 90,000-transaction run of
// the paper's configuration (DESIGN.md §9).
//
// The key is the exact bit pattern of (betaL, betaC), and the stored value is
// what raceLossProbability returned for those bits, so a hit returns the bits
// a fresh evaluation would: fill order, sharing between sites, growth and the
// capacity cap cannot change any result. The delay d is not in the key — it
// is one constant per Params — so a memo serves the first delay it sees and
// evaluates any other directly.
//
// The zero value is ready to use and holds no table until the first miss. A
// RaceMemo is not safe for concurrent use: give each event loop its own. A
// nil *RaceMemo is valid and evaluates every call directly.
type RaceMemo struct {
	slots []raceSlot // open addressing, linear probing; len is a power of two
	n     int        // occupied slots
	shift uint       // 64 - log2(len(slots)): the hash's high bits index the table
	d     float64    // the delay every stored value was computed with

	hits, misses uint64
}

// raceSlot is one table entry. The memo is consulted only on the integral
// path, where betaL > 0, so a zero keyL marks an empty slot.
type raceSlot struct {
	keyL, keyC uint64
	pf         float64
}

const (
	raceMemoMinSlots = 1 << 9 // first table: 12 KiB
	// raceMemoMaxSlots caps the table at 2¹⁵ entries (load 1/2, 1.5 MiB).
	// Beyond it nothing is inserted and a miss is evaluated directly.
	raceMemoMaxSlots = 1 << 16
)

// MemoStats counts a RaceMemo's lookups on the integral path.
type MemoStats struct {
	Hits, Misses uint64
	Entries      int
}

// HitRate returns hits over lookups, 0 before the first lookup.
func (s MemoStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns the lookup counts so far.
func (m *RaceMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	return MemoStats{Hits: m.hits, Misses: m.misses, Entries: m.n}
}

// lossProbability is raceLossProbability through the memo.
func (m *RaceMemo) lossProbability(betaL, betaC, d float64) float64 {
	if m == nil || betaL <= 0 || betaC <= 0 {
		return raceLossProbability(betaL, betaC, d) // closed forms: nothing to save
	}
	keyL, keyC := math.Float64bits(betaL), math.Float64bits(betaC)
	if m.slots == nil {
		m.d = d
	} else {
		if d != m.d {
			return raceLossProbability(betaL, betaC, d)
		}
		mask := uint64(len(m.slots) - 1)
		for i := raceHash(keyL, keyC) >> m.shift; ; i = (i + 1) & mask {
			s := &m.slots[i]
			if s.keyL == keyL && s.keyC == keyC {
				m.hits++
				return s.pf
			}
			if s.keyL == 0 {
				break
			}
		}
	}
	m.misses++
	pf := raceLossProbability(betaL, betaC, d)
	m.insert(keyL, keyC, pf)
	return pf
}

// raceHash mixes the two keys; the caller takes the high bits. Neighbouring
// arguments differ in their low mantissa bits, which the multiplication
// carries upward.
func raceHash(keyL, keyC uint64) uint64 {
	return (keyL ^ bits.RotateLeft64(keyC, 31)) * 0x9E3779B97F4A7C15
}

// insert stores a new entry, doubling the table first when it is half full;
// at the cap it stores nothing.
func (m *RaceMemo) insert(keyL, keyC uint64, pf float64) {
	if 2*m.n >= len(m.slots) {
		if len(m.slots) >= raceMemoMaxSlots {
			return
		}
		old := m.slots
		size := max(raceMemoMinSlots, 2*len(old))
		m.slots = make([]raceSlot, size)
		m.shift = uint(64 - bits.TrailingZeros(uint(size)))
		for _, s := range old {
			if s.keyL != 0 {
				m.place(s)
			}
		}
	}
	m.place(raceSlot{keyL, keyC, pf})
	m.n++
}

// place puts an entry known to be absent into the first free slot of its
// probe sequence.
func (m *RaceMemo) place(e raceSlot) {
	mask := uint64(len(m.slots) - 1)
	i := raceHash(e.keyL, e.keyC) >> m.shift
	for m.slots[i].keyL != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = e
}
