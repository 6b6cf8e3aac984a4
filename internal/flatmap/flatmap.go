// Package flatmap provides an open-addressed hash map for integer keys,
// used on the simulation's hottest state paths (the lock manager's element
// and transaction tables, the sites' resident-transaction tables) in place
// of Go's built-in map. The difference that matters at N=1000 sites is not
// asymptotic: linear probing over two flat arrays keeps a lookup inside one
// or two cache lines, inserts after warm-up reuse the arrays with no bucket
// allocation, and deletes shift displaced neighbors backward instead of
// leaving tombstones, so the table never degrades with churn.
//
// The map is deliberately minimal: Get/Put/Delete/Take/Len plus an unordered
// Range for integrity checks. Nothing in the simulation may depend on
// iteration order (the determinism contract); Range exists only for
// self-check walks whose outcome is order-independent.
package flatmap

// Key is any integer key type.
type Key interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64
}

// Map is an open-addressed hash table with linear probing and
// backward-shift deletion. The zero value is not ready to use; call New.
type Map[K Key, V any] struct {
	keys  []K
	vals  []V
	used  []bool
	n     int
	shift uint // 64 - log2(len(keys)), for fibonacci hashing
}

// New returns a map pre-sized to hold hint entries without growing.
func New[K Key, V any](hint int) *Map[K, V] {
	capacity := 8
	for capacity*3/4 < hint {
		capacity *= 2
	}
	m := &Map[K, V]{}
	m.init(capacity)
	return m
}

func (m *Map[K, V]) init(capacity int) {
	m.keys = make([]K, capacity)
	m.vals = make([]V, capacity)
	m.used = make([]bool, capacity)
	m.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		m.shift--
	}
}

// home returns the key's preferred slot: fibonacci hashing spreads the
// sequential IDs the simulation generates (element numbers, transaction
// counters) across the table's top bits, where clustering would otherwise
// make linear probing quadratic.
func (m *Map[K, V]) home(k K) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> m.shift)
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.n }

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	mask := len(m.keys) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		if !m.used[i] {
			var zero V
			return zero, false
		}
		if m.keys[i] == k {
			return m.vals[i], true
		}
	}
}

// Put stores v under k, replacing any existing value.
func (m *Map[K, V]) Put(k K, v V) {
	if (m.n+1)*4 > len(m.keys)*3 {
		m.grow()
	}
	mask := len(m.keys) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		if !m.used[i] {
			m.keys[i], m.vals[i], m.used[i] = k, v, true
			m.n++
			return
		}
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
	}
}

// Delete removes k's entry, reporting whether one existed.
func (m *Map[K, V]) Delete(k K) bool {
	_, ok := m.Take(k)
	return ok
}

// Take removes k's entry and returns its value, in one probe. Displaced
// neighbors of the probe chain are shifted back over the hole, so the table
// carries no tombstones and probe chains never outlive their entries.
func (m *Map[K, V]) Take(k K) (V, bool) {
	mask := len(m.keys) - 1
	i := m.home(k)
	for {
		if !m.used[i] {
			var zero V
			return zero, false
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	v := m.vals[i]
	for j := i; ; {
		j = (j + 1) & mask
		if !m.used[j] {
			break
		}
		// The entry at j may move into the hole at i only if its home does
		// not lie in the cyclic interval (i, j] — otherwise the move would
		// put it before its home and lookups would miss it.
		if (j-m.home(m.keys[j]))&mask >= (j-i)&mask {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			i = j
		}
	}
	var zero V
	m.vals[i] = zero // drop any pointer so the value can be collected
	m.used[i] = false
	m.n--
	return v, true
}

// Range calls f for every entry in unspecified order until f returns false.
// Callers must not depend on the order (and must not mutate the map during
// the walk); it exists for integrity checks, not for simulation logic.
func (m *Map[K, V]) Range(f func(K, V) bool) {
	for i, u := range m.used {
		if u && !f(m.keys[i], m.vals[i]) {
			return
		}
	}
}

func (m *Map[K, V]) grow() {
	keys, vals, used := m.keys, m.vals, m.used
	m.init(2 * len(keys))
	m.n = 0
	for i, u := range used {
		if u {
			m.Put(keys[i], vals[i])
		}
	}
}
