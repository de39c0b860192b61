// Package shard holds two sharded variants of the simulation engine,
// withdrawn from the simulator (DESIGN §11, §12) and kept compiled only
// for the benchmark's engine drivers. Each keeps per-node-group event
// queues, with cross-shard work handed off at least one lookahead window
// ahead of the receiving shard's clock.
//
// Two engines live here, with different contracts:
//
//   - Engine (this file) is the exact mode: K event queues popped
//     through a k-way merge on the same global (cycle, seq) order the
//     serial sim.Engine uses, so a full CMP simulation — whose FSOI
//     network draws from one RNG stream in event-execution order — is
//     byte-identical to the serial engine at any shard count, by
//     construction. Exact mode runs on one goroutine; its job is to
//     prove the sharded schedule (per-shard queue placement) preserves
//     the serial order.
//
//   - Windows (windows.go) is the parallel mode: shards advance
//     concurrently through lookahead-wide windows on a worker pool,
//     byte-identical to itself at every shard and worker count.
//
// No simulation runs on either engine (DESIGN §11, §12): the model takes
// the serial *sim.Engine. The package stays compiled for the benchmark's
// engine drivers (shard.exact_step_ns, shard.window_ns_w*) and goes with
// them.
package shard

import (
	"fmt"

	"fsoi/internal/sim"
)

// tickerEntry pins a registered ticker to the shard that was current at
// registration time, so shard accounting survives the ticker sweep.
type tickerEntry struct {
	shard int
	t     sim.Ticker
}

// Engine is the exact sharded engine. It keeps K per-shard event
// queues and pops them through a k-way merge on the global (at, seq)
// order, which makes its event execution — and hence
// every RNG draw and stat update made from event callbacks —
// byte-identical to the serial sim.Engine's.
//
// A current-shard cursor tracks which shard's code is executing: events
// scheduled with At land on the scheduling shard's queue. The cursor is
// bookkeeping, not a correctness boundary — exact mode would execute
// identically under any placement.
type Engine struct {
	shards    []wQueue // node 0 in every key: the order is (at, seq)
	tickers   []tickerEntry
	nodeShard []int
	now       sim.Cycle
	seq       uint64
	cur       int
	stopped   bool
	fired     uint64

	// tops is an index-heap over the non-empty shards, ordered by each
	// shard's head event under the global (at, seq) order; topPos maps a
	// shard to its heap slot (-1 when its queue is empty). It replaces
	// the O(K) linear scan over shard tops the merge loop used to do per
	// event with an O(log K) fix-up per push/pop.
	tops   []int
	topPos []int
}

// New returns an exact sharded engine with k per-shard queues, at cycle
// 0 with shard 0 current.
func New(k int) *Engine {
	if k < 1 {
		panic("shard: engine needs at least one shard")
	}
	e := &Engine{
		shards: make([]wQueue, k),
		topPos: make([]int, k),
	}
	for i := range e.topPos {
		e.topPos[i] = -1
	}
	return e
}

// SetShard moves the current-shard cursor; the system layer brackets
// each node group's construction with it so components register their
// tickers and initial events on their home shard.
func (e *Engine) SetShard(k int) {
	if k < 0 || k >= len(e.shards) {
		panic(fmt.Sprintf("shard: SetShard(%d) out of range [0,%d)", k, len(e.shards)))
	}
	e.cur = k
}

// AssignNodes maps nodes 0..nodes-1 onto shards in contiguous balanced
// blocks: node i lands on shard i*K/nodes. Contiguity keeps a mesh's
// row-major neighbours mostly same-shard.
func (e *Engine) AssignNodes(nodes int) {
	e.nodeShard = make([]int, nodes)
	for i := range e.nodeShard {
		e.nodeShard[i] = i * len(e.shards) / nodes
	}
}

// NodeShard reports the shard owning a node. Nodes outside the assigned
// range (or before AssignNodes) map to shard 0 — global components like
// memory-controller edges live with the first shard.
func (e *Engine) NodeShard(node int) int {
	if node < 0 || node >= len(e.nodeShard) {
		return 0
	}
	return e.nodeShard[node]
}

// topLess orders two shards by their head events under the global
// (at, seq) order. Both shards must be non-empty (they are in the
// heap).
func (e *Engine) topLess(a, b int) bool {
	x, y := &e.shards[a].a[0], &e.shards[b].a[0]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// topSwap exchanges two heap slots, keeping topPos consistent.
func (e *Engine) topSwap(i, j int) {
	e.tops[i], e.tops[j] = e.tops[j], e.tops[i]
	e.topPos[e.tops[i]] = i
	e.topPos[e.tops[j]] = j
}

// topUp sifts the shard at heap slot i toward the root and returns its
// final slot.
func (e *Engine) topUp(i int) int {
	for i > 0 {
		p := (i - 1) / 2
		if !e.topLess(e.tops[i], e.tops[p]) {
			break
		}
		e.topSwap(i, p)
		i = p
	}
	return i
}

// topDown sifts the shard at heap slot i toward the leaves.
func (e *Engine) topDown(i int) {
	n := len(e.tops)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && e.topLess(e.tops[c+1], e.tops[c]) {
			c++
		}
		if !e.topLess(e.tops[c], e.tops[i]) {
			break
		}
		e.topSwap(i, c)
		i = c
	}
}

// topPopped restores the heap after shard k's head was popped: the new
// head is later (sift down) or the queue emptied (remove the shard).
func (e *Engine) topPopped(k int) {
	i := e.topPos[k]
	if len(e.shards[k].a) == 0 {
		last := len(e.tops) - 1
		e.topSwap(i, last)
		e.tops = e.tops[:last]
		e.topPos[k] = -1
		if i < last {
			e.topDown(e.topUp(i))
		}
		return
	}
	e.topDown(i)
}

// Register adds a ticker on the current shard. The sweep order is
// global registration order, same as the serial engine.
func (e *Engine) Register(t sim.Ticker) {
	e.tickers = append(e.tickers, tickerEntry{shard: e.cur, t: t})
}

// Step advances one cycle: fires due events across all shards in
// global (at, seq) order via the cached top-heap merge, then ticks
// tickers in registration order. Each event and tick executes with the
// cursor on its home shard, so nested At calls land there.
func (e *Engine) Step() {
	for len(e.tops) > 0 {
		k := e.tops[0]
		if e.shards[k].a[0].at > e.now {
			break
		}
		e.cur = k
		ev := e.shards[k].pop()
		e.topPopped(k)
		e.fired++
		ev.fn(e.now)
	}
	for _, te := range e.tickers {
		e.cur = te.shard
		te.t.Tick(e.now)
	}
	e.now++
}

// Run executes up to maxCycles cycles, stopping early if Stop is
// called. It returns the number of cycles actually executed.
func (e *Engine) Run(maxCycles sim.Cycle) sim.Cycle {
	start := e.now
	for e.now-start < maxCycles && !e.stopped {
		e.Step()
	}
	return e.now - start
}
