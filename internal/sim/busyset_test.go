package sim

import (
	"reflect"
	"testing"
)

// fakeSharded is a Scheduler that maps nodes onto shards the way the
// sharded engines do (node i on shard i*k/nodes).
type fakeSharded struct {
	*Engine
	k, nodes int
}

func (f fakeSharded) NodeShard(node int) int          { return node * f.k / f.nodes }
func (f fakeSharded) Handoff(int, Cycle, func(Cycle)) {}

func TestBlocksFollowTheShardMap(t *testing.T) {
	if got := Blocks(NewEngine(), 16); !reflect.DeepEqual(got, []Block{{0, 16}}) {
		t.Fatalf("serial engine: blocks %v, want one block of 16", got)
	}
	got := Blocks(fakeSharded{NewEngine(), 3, 16}, 16)
	want := []Block{{0, 6}, {6, 11}, {11, 16}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("3 shards over 16 nodes: blocks %v, want %v", got, want)
	}
}

func TestBusySetWalksEachBlockInOrderOnItsOwnWords(t *testing.T) {
	blocks := []Block{{0, 6}, {6, 75}, {75, 200}}
	b := NewBusySet(blocks)
	marked := []int{199, 5, 6, 70, 74, 75, 0, 138, 139}
	for _, id := range marked {
		b.Mark(id)
	}
	b.Mark(70)
	b.Clear(139)
	want := [][]int{{0, 5}, {6, 70, 74}, {75, 138, 199}}
	for k := range blocks {
		var got []int
		b.Each(k, func(id int) {
			got = append(got, id)
			b.Clear(id) // a tick may retire the node it runs for
		})
		if !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("block %d walked %v, want %v", k, got, want[k])
		}
	}
	for id := 0; id < 200; id++ {
		if b.Has(id) {
			t.Fatalf("node %d still in the set after every block cleared its members", id)
		}
	}
	// No word belongs to two blocks: that is what lets shards mark
	// concurrently without atomics.
	owner := map[int32]int{}
	for k, blk := range blocks {
		for id := blk.Lo; id < blk.Hi; id++ {
			w := b.slot[id] >> 6
			if prev, seen := owner[w]; seen && prev != k {
				t.Fatalf("word %d holds bits of blocks %d and %d", w, prev, k)
			}
			owner[w] = k
		}
	}
}
