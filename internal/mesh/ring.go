package mesh

import "math/bits"

// ring is a FIFO over one circular buffer. Its users bound its length
// themselves (credits for VC buffers, InjectQueue for NIC queues), so
// it never grows; the storage is allocated on the first push because
// most VCs of a run never hold a flit.
type ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // elements queued
}

func (r *ring[T]) push(x T, capacity int) {
	if r.buf == nil {
		r.buf = make([]T, capacity)
	}
	if r.n == len(r.buf) {
		panic("mesh: push to a full ring: the caller's occupancy bound is broken")
	}
	slot := r.head + r.n
	if slot >= len(r.buf) {
		slot -= len(r.buf)
	}
	r.buf[slot] = x
	r.n++
}

// reset empties the ring, keeping its storage.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// front returns the oldest element; the ring must not be empty.
func (r *ring[T]) front() T { return r.buf[r.head] }

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	var zero T
	x := r.buf[r.head]
	r.buf[r.head] = zero // do not pin a popped packet
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return x
}

// bitset is a fixed-size set of node ids, walked in ascending order.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (i & 63) }

// each calls f on every member in ascending order. It reads a word once,
// when the walk reaches it, so f may remove any member; one that f adds
// is visited only if it lies in a later word, so f's effect must not
// depend on whether it is.
func (b bitset) each(f func(int)) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}
