package sim

import "math/bits"

// BusySet is the set of nodes with per-cycle work pending, one bit per
// node, walked in ascending id order.
type BusySet struct {
	words []uint64
}

// NewBusySet returns an empty set over nodes 0..nodes-1.
func NewBusySet(nodes int) *BusySet {
	return &BusySet{words: make([]uint64, (nodes+63)/64)}
}

// Mark adds a node and reports whether it joined: false if it was
// already in the set.
func (b *BusySet) Mark(node int) bool {
	w, bit := &b.words[node>>6], uint64(1)<<(node&63)
	joined := *w&bit == 0
	*w |= bit
	return joined
}

// Clear removes a node.
func (b *BusySet) Clear(node int) {
	b.words[node>>6] &^= 1 << (node & 63)
}

// Has reports whether a node is in the set.
func (b *BusySet) Has(node int) bool {
	return b.words[node>>6]&(1<<(node&63)) != 0
}

// Any reports whether the set has a member.
func (b *BusySet) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Each calls f on every member in ascending id order. It reads a word
// once, when the walk reaches it, so f may mark or clear the node it is
// called with but must not mark another node.
func (b *BusySet) Each(f func(node int)) {
	for w, word := range b.words {
		for ; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}
