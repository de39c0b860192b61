package system

import (
	"strconv"
	"testing"

	"fsoi/internal/coherence"
	"fsoi/internal/sim"
)

// TestNewAllocationsPerNode bounds what building an FSOI system allocates
// for each node it adds: the L1 and its array, histogram and RNG streams,
// the directory and its sync manager, and the network's RNG stream. A
// table or record made eagerly for every node again (a map each node
// rarely writes, a nodeState of its own) adds one per node and fails.
func TestNewAllocationsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	allocs := func(n int) float64 {
		cfg := Default(n, NetFSOI)
		return testing.AllocsPerRun(5, func() { New(cfg) })
	}
	a64, a256 := allocs(64), allocs(256)
	const bound = 11
	if slope := (a256 - a64) / 192; slope > bound {
		t.Fatalf("New allocates %.2f objects per node (%.0f at 64 nodes, %.0f at 256), want at most %d", slope, a64, a256, bound)
	}
}

// TestSubscriptionWaitTableIsLazy: a node's continuation table is made by
// its first wait. A bit for a node that never waited reads the nil table
// and is dropped; the first Acquire makes the table and completes.
func TestSubscriptionWaitTableIsLazy(t *testing.T) {
	s := New(Default(16, NetFSOI))
	f, ok := s.sync.(*subscriptionSync)
	if !ok {
		t.Fatalf("the FSOI default builds %T, want the subscription fabric", s.sync)
	}
	for node, m := range f.waiting {
		if m != nil {
			t.Fatalf("node %d starts with a continuation table", node)
		}
	}
	f.onBit(3, coherence.LockTag(7, false), true, 0)
	if f.waiting[3] != nil {
		t.Fatal("a bit nobody waits for made a table")
	}
	var acquired sim.Cycle
	f.Acquire(3, 7, func(now sim.Cycle) { acquired = now })
	if len(f.waiting[3]) != 1 {
		t.Fatalf("the first Acquire registered %d continuations, want 1", len(f.waiting[3]))
	}
	for limit := 0; acquired == 0 && limit < 100; limit++ {
		s.Engine().Run(10)
	}
	if acquired == 0 || len(f.waiting[3]) != 0 {
		t.Fatalf("the first Acquire of a free lock did not complete (%d continuations left)", len(f.waiting[3]))
	}
	for node, m := range f.waiting {
		if node != 3 && m != nil {
			t.Fatalf("node 3's Acquire made node %d's table", node)
		}
	}
}

// BenchmarkNew prices building an FSOI system at three sizes.
func BenchmarkNew(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			cfg := Default(n, NetFSOI)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(cfg)
			}
		})
	}
}
