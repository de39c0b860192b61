package shard

import (
	"fmt"
	"testing"

	"fsoi/internal/sim"
)

// Driver is the scheduling surface chaosWorkload drives, which the
// serial *sim.Engine and the exact *Engine share.
type Driver interface {
	At(at sim.Cycle, fn func(now sim.Cycle))
	After(delay sim.Cycle, fn func(now sim.Cycle))
	Register(t sim.Ticker)
	Stop()
}

// push assigns the next global sequence number and enqueues on shard k.
func (e *Engine) push(k int, at sim.Cycle, fn func(now sim.Cycle)) {
	e.seq++
	e.shards[k].push(wEvent{at: at, seq: e.seq, fn: fn})
	e.topPushed(k)
}

// topPushed restores shard k's heap position after a push onto its
// queue: an absent shard is inserted; an existing one can only have
// moved earlier, so a sift toward the root suffices.
func (e *Engine) topPushed(k int) {
	if e.topPos[k] < 0 {
		e.tops = append(e.tops, k)
		e.topPos[k] = len(e.tops) - 1
	}
	e.topUp(e.topPos[k])
}

// At schedules fn at cycle at on the current shard's queue. Past
// scheduling panics, mirroring the serial engine.
func (e *Engine) At(at sim.Cycle, fn func(now sim.Cycle)) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	e.push(e.cur, at, fn)
}

// After schedules fn delay cycles from now on the current shard.
func (e *Engine) After(delay sim.Cycle, fn func(now sim.Cycle)) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+delay, fn)
}

// Stop requests that Run return at the end of the current cycle.
func (e *Engine) Stop() { e.stopped = true }

// EventsFired reports how many scheduled events have executed.
func (e *Engine) EventsFired() uint64 { return e.fired }

// chaosWorkload drives a Driver with a randomized but deterministic
// event storm: tickers that schedule events, events that schedule more
// events (including zero-delay follow-ups and, on the sharded engine,
// events placed on another node's shard),
// and a mid-run Stop. Every observable action appends a line to trace,
// so two engines executed this way can be compared action for action.
func chaosWorkload(eng Driver, seed uint64, trace *[]string) {
	rng := sim.NewRNG(seed).NewStream("chaos")
	// handoff routes to the node's shard when the engine shards, plain At
	// otherwise. The RNG draws are identical on both paths, so the serial
	// and sharded runs see the same workload.
	handoff := func(node int, at sim.Cycle, fn func(now sim.Cycle)) {
		if s, ok := eng.(*Engine); ok {
			s.push(s.NodeShard(node), at, fn)
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

// TestAssignNodesContiguous: 8 nodes over 4 shards land in pairs, and
// nodes outside the assigned range map to shard 0.
func TestAssignNodesContiguous(t *testing.T) {
	e := New(4)
	e.AssignNodes(8)
	for node, want := range []int{0, 0, 1, 1, 2, 2, 3, 3} {
		if got := e.NodeShard(node); got != want {
			t.Errorf("NodeShard(%d) = %d, want %d", node, got, want)
		}
	}
	if e.NodeShard(-1) != 0 || e.NodeShard(99) != 0 {
		t.Error("out-of-range nodes should map to shard 0")
	}
}
