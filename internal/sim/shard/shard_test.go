package shard

import (
	"fmt"
	"testing"

	"fsoi/internal/sim"
)

// chaosWorkload drives a Driver with a randomized but deterministic
// event storm: tickers that schedule events, events that schedule more
// events (including zero-delay follow-ups and Handoff when available),
// and a mid-run Stop. Every observable action appends a line to trace,
// so two engines executed this way can be compared action for action.
func chaosWorkload(eng Driver, seed uint64, trace *[]string) {
	rng := sim.NewRNG(seed).NewStream("chaos")
	// handoff routes to the node's shard when the engine shards, plain At
	// otherwise. The RNG draws are identical on both paths, so the serial
	// and sharded runs see the same workload.
	handoff := func(node int, at sim.Cycle, fn func(now sim.Cycle)) {
		if s, ok := eng.(*Engine); ok {
			s.Handoff(s.NodeShard(node), at, fn)
			return
		}
		eng.At(at, fn)
	}
	var schedule func(depth int, id string) func(now sim.Cycle)
	schedule = func(depth int, id string) func(now sim.Cycle) {
		return func(now sim.Cycle) {
			*trace = append(*trace, fmt.Sprintf("%d event %s draw=%d", now, id, rng.Intn(1000)))
			if depth >= 3 {
				return
			}
			for i := 0; i < rng.Intn(3); i++ {
				child := fmt.Sprintf("%s.%d", id, i)
				delay := sim.Cycle(rng.Intn(5))
				if rng.Bool(0.4) {
					handoff(rng.Intn(8), now+2+delay, schedule(depth+1, child))
				} else {
					eng.After(delay, schedule(depth+1, child))
				}
			}
		}
	}
	for t := 0; t < 3; t++ {
		tid := t
		eng.Register(sim.TickFunc(func(now sim.Cycle) {
			if rng.Bool(0.3) {
				*trace = append(*trace, fmt.Sprintf("%d tick %d", now, tid))
				eng.After(sim.Cycle(1+rng.Intn(4)), schedule(0, fmt.Sprintf("t%d@%d", tid, now)))
			}
			if now == 200 && tid == 1 {
				eng.Stop()
			}
		}))
	}
	eng.At(0, schedule(0, "root"))
}

// TestExactEngineMatchesSerial is the kernel-level byte-identity proof:
// the same randomized workload executes the same action sequence on the
// serial engine and on the exact sharded engine at several shard
// counts. Because the workload interleaves RNG draws with execution,
// any divergence in event order diverges the trace immediately.
func TestExactEngineMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{1, 42, 777} {
		seed := seed
		var want []string
		ref := sim.NewEngine()
		chaosWorkload(ref, seed, &want)
		refCycles := ref.Run(500)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty reference trace", seed)
		}
		for _, k := range []int{1, 2, 3, 4, 8} {
			var got []string
			e := New(k)
			e.AssignNodes(8)
			e.SetLookahead(2)
			chaosWorkload(e, seed, &got)
			gotCycles := e.Run(500)
			if gotCycles != refCycles {
				t.Errorf("seed %d shards %d: ran %d cycles, serial ran %d", seed, k, gotCycles, refCycles)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d shards %d: %d actions vs serial %d", seed, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d shards %d: first divergence at action %d:\n  serial:  %s\n  sharded: %s",
						seed, k, i, want[i], got[i])
				}
			}
			if e.EventsFired() != ref.EventsFired() {
				t.Errorf("seed %d shards %d: fired %d events, serial fired %d",
					seed, k, e.EventsFired(), ref.EventsFired())
			}
		}
	}
}

// TestHandoffMetering checks the cursor and the lookahead meter: a
// handoff to another shard counts once, one closer than the declared
// window additionally trips UnderLookahead, and same-shard handoffs
// count as neither.
func TestHandoffMetering(t *testing.T) {
	e := New(4)
	e.AssignNodes(8)
	e.SetLookahead(2)
	nop := func(now sim.Cycle) {}
	e.SetShard(0)
	e.Handoff(0, 0, nop) // same-shard: not a handoff
	e.Handoff(1, 2, nop) // cross-shard, at lookahead: clean
	e.Handoff(2, 1, nop) // cross-shard, under lookahead
	if e.Handoffs() != 2 {
		t.Errorf("Handoffs() = %d, want 2", e.Handoffs())
	}
	if e.UnderLookahead() != 1 {
		t.Errorf("UnderLookahead() = %d, want 1", e.UnderLookahead())
	}
	if e.Pending() != 3 {
		t.Errorf("Pending() = %d, want 3", e.Pending())
	}
	// Contiguous node assignment: 8 nodes over 4 shards is pairs.
	for node, want := range []int{0, 0, 1, 1, 2, 2, 3, 3} {
		if got := e.NodeShard(node); got != want {
			t.Errorf("NodeShard(%d) = %d, want %d", node, got, want)
		}
	}
	if e.NodeShard(-1) != 0 || e.NodeShard(99) != 0 {
		t.Error("out-of-range nodes should map to shard 0")
	}
}
