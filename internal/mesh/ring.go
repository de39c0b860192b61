package mesh

import "math/bits"

// ring is a FIFO over one circular buffer. Most users bound its length
// themselves (credits for VC buffers, InjectQueue for NIC queues) and
// push, which never grows it; the storage is allocated on the first push
// because most VCs of a run never hold a flit. The link queue has no
// such bound and uses pushGrow.
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

// pushGrow is push for a FIFO with no occupancy bound: a full ring
// doubles, so a run stops allocating once it has seen its peak.
func (r *ring[T]) pushGrow(x T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(2*len(r.buf), 64))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.push(x, len(r.buf))
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
// when the walk reaches it, so f may remove any member but must not add
// one to the word being walked.
func (b bitset) each(f func(int)) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}
