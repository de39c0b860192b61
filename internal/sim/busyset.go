package sim

import "math/bits"

// Block is a maximal run of consecutive node ids [Lo, Hi) whose events
// and ticks execute on the same shard of the engine. The serial engine
// has one block covering every node.
type Block struct{ Lo, Hi int }

// Blocks partitions nodes 0..nodes-1 into blocks under the engine's
// node-to-shard map. Per-node work that has to run in node order within
// a cycle registers one ticker per block (through the block's first
// node's scheduler) instead of one per node.
func Blocks(engine Scheduler, nodes int) []Block {
	var out []Block
	prev := 0
	for i := 0; i < nodes; i++ {
		k := 0
		if sh, ok := SchedulerFor(engine, i).(Sharder); ok {
			k = sh.NodeShard(i)
		}
		if i == 0 || k != prev {
			out = append(out, Block{Lo: i, Hi: i})
		}
		out[len(out)-1].Hi = i + 1
		prev = k
	}
	return out
}

// busyPad is the gap, in words, left between two blocks' words: one
// cache line, so concurrent workers never write the same line wherever
// the allocation starts.
const busyPad = 8

// BusySet is the set of nodes with per-cycle work pending, partitioned
// by block. A node's bit may only be touched from that node's own
// context, and every block's bits live in words no other block shares,
// so shards running concurrently never write the same word.
type BusySet struct {
	words  []uint64
	slot   []int32 // node -> bit index into words
	blocks []busyBlock
}

// busyBlock locates one block's words: bit 0 of words[w0] is node lo.
type busyBlock struct{ lo, w0, w1 int }

// NewBusySet returns an empty set over the nodes the blocks cover.
func NewBusySet(blocks []Block) *BusySet {
	b := &BusySet{blocks: make([]busyBlock, len(blocks))}
	w := 0
	for k, blk := range blocks {
		n := (blk.Hi - blk.Lo + 63) / 64
		b.blocks[k] = busyBlock{lo: blk.Lo, w0: w, w1: w + n}
		for id := blk.Lo; id < blk.Hi; id++ {
			b.slot = append(b.slot, int32(w<<6+id-blk.Lo))
		}
		w += n + busyPad
	}
	b.words = make([]uint64, w)
	return b
}

// Mark adds a node and reports whether it joined: false if it was
// already in the set.
func (b *BusySet) Mark(node int) bool {
	i := b.slot[node]
	w, bit := &b.words[i>>6], uint64(1)<<(i&63)
	joined := *w&bit == 0
	*w |= bit
	return joined
}

// Clear removes a node.
func (b *BusySet) Clear(node int) {
	i := b.slot[node]
	b.words[i>>6] &^= 1 << (i & 63)
}

// Has reports whether a node is in the set.
func (b *BusySet) Has(node int) bool {
	i := b.slot[node]
	return b.words[i>>6]&(1<<(i&63)) != 0
}

// Any reports whether block k has a member.
func (b *BusySet) Any(k int) bool {
	blk := b.blocks[k]
	for _, w := range b.words[blk.w0:blk.w1] {
		if w != 0 {
			return true
		}
	}
	return false
}

// Each calls f on every member of block k in ascending id order. It
// reads a word once, when the walk reaches it, so f may mark or clear
// the node it is called with but must not mark another node of the
// block.
func (b *BusySet) Each(k int, f func(node int)) {
	blk := b.blocks[k]
	for w := blk.w0; w < blk.w1; w++ {
		for word := b.words[w]; word != 0; word &= word - 1 {
			f(blk.lo + (w-blk.w0)<<6 + bits.TrailingZeros64(word))
		}
	}
}
