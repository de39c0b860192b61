// Package table provides the one hash table the simulator's per-packet
// paths use where the key space is not bounded by a handful of live items:
// open addressing over integer keys, sized by what is stored. It holds
// the directory's line index, the FSOI reply log's per-responder lists
// and, in the observation layer, the per-link index and the inject cycle
// of each packet an export pairs.
//
// A Go map would do the same job; this is here because those paths run a
// lookup per packet and the built-in pays for generality they do not need
// (a hash function chosen at run time, control-byte groups, a header per
// map), and because a table whose slots hold no pointers is skipped by the
// garbage collector. The map stays the reference: table_test.go drives
// both with one script.
package table

import "math/bits"

// Table maps uint64 keys to values of type V. The zero value is an empty
// table that owns no memory: the first Put allocates minSlots slots and
// the table doubles whenever it would pass three quarters full, so a table
// that stays small stays cheap and nothing is paid up front.
//
// Keys are spread by a multiply-shift (Fibonacci) hash, collisions resolved
// by linear probing, and Delete closes the gap by shifting the run's later
// entries back, so there are no tombstones and a lookup's cost depends only
// on what is stored now.
//
// Slot i is split across three arrays: keys[i], vals[i] and bit i of used.
// Every key is a legal key, so occupancy cannot hide in the key itself, and
// a flag byte beside each key would pad a slot to the key's alignment: a
// Table[int32] slot is 12 bytes and an eighth, not 16.
//
// Pointer stability: the pointer Put and Ref return addresses a slot. It is
// valid until the next Put (the table may grow) or Delete (entries may
// shift) on the same table, and not after; callers that need a stable
// record store an index or pointer to it as the value.
type Table[V any] struct {
	keys  []uint64
	vals  []V
	used  []uint64 // bit i set: slot i holds keys[i] and vals[i]
	n     int
	shift uint // 64 - log2(len(keys))
}

const minSlots = 4

// Len reports the number of keys stored.
func (t *Table[V]) Len() int { return t.n }

// Reset empties the table and keeps its arrays, so a table refilled to
// the size it had allocates nothing. The emptied table holds what a new
// one would, but may have more slots; that is invisible only because
// nothing ranges over a Table in slot order, where a different capacity
// would show as a different order. Keep it that way.
func (t *Table[V]) Reset() {
	clear(t.keys)
	clear(t.vals)
	clear(t.used)
	t.n = 0
}

// home is key's preferred slot.
func (t *Table[V]) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// full reports whether slot i holds an entry.
func (t *Table[V]) full(i int) bool {
	return t.used[i>>6]&(1<<uint(i&63)) != 0
}

// find returns the index of key's slot, or -1 when key is absent. The
// table is never full, so a probe always ends at an empty slot.
func (t *Table[V]) find(key uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.keys) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if !t.full(i) {
			return -1
		}
		if t.keys[i] == key {
			return i
		}
	}
}

// Ref returns a pointer to key's value, or nil when key is absent.
func (t *Table[V]) Ref(key uint64) *V {
	if i := t.find(key); i >= 0 {
		return &t.vals[i]
	}
	return nil
}

// Put returns a pointer to key's value, inserting the zero value first
// when key is absent.
func (t *Table[V]) Put(key uint64) *V {
	if p := t.Ref(key); p != nil {
		return p
	}
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	i := t.free(key)
	t.keys[i] = key
	t.used[i>>6] |= 1 << uint(i&63)
	t.n++
	return &t.vals[i]
}

// free returns the first empty slot of an absent key's probe.
func (t *Table[V]) free(key uint64) int {
	i := t.home(key)
	for t.full(i) {
		i = (i + 1) & (len(t.keys) - 1)
	}
	return i
}

// grow doubles the table (from empty, to minSlots) and reinserts every
// entry.
func (t *Table[V]) grow() {
	old := *t
	size := max(minSlots, 2*len(old.keys))
	t.keys = make([]uint64, size)
	t.vals = make([]V, size)
	t.used = make([]uint64, (size+63)/64)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for w, word := range old.used {
		for word != 0 {
			k := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			i := t.free(old.keys[k])
			t.keys[i], t.vals[i] = old.keys[k], old.vals[k]
			t.used[i>>6] |= 1 << uint(i&63)
		}
	}
}

// Delete removes key, returning its value and whether it was present.
func (t *Table[V]) Delete(key uint64) (V, bool) {
	var zero V
	i := t.find(key)
	if i < 0 {
		return zero, false
	}
	v := t.vals[i]
	// Backward shift: an entry further along the run moves into the gap
	// unless that would put it ahead of its home slot.
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.full(j); j = (j + 1) & mask {
		if h := t.home(t.keys[j]); (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, zero
	t.used[i>>6] &^= 1 << uint(i&63)
	t.n--
	return v, true
}
