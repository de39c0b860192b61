// Package shard implements sharded variants of the simulation engine:
// per-node-group event queues, with cross-shard work handed off at
// least one lookahead window ahead of the receiving shard's clock.
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

// Scheduler is the scheduling surface the engines here share with the
// serial *sim.Engine: the current cycle, timed callbacks, per-cycle
// tickers, and the stop request.
type Scheduler interface {
	Now() sim.Cycle
	At(at sim.Cycle, fn func(now sim.Cycle))
	After(delay sim.Cycle, fn func(now sim.Cycle))
	Register(t sim.Ticker)
	Stop()
}

// Driver extends Scheduler with the run loop and the engine counters.
type Driver interface {
	Scheduler
	Step()
	Run(maxCycles sim.Cycle) sim.Cycle
	Pending() int
	EventsFired() uint64
	MaxQueueDepth() int
}

// tickerEntry pins a registered ticker to the shard that was current at
// registration time, so shard accounting survives the ticker sweep.
type tickerEntry struct {
	shard int
	t     sim.Ticker
}

// Engine is the exact sharded engine. It implements Driver with K
// per-shard event queues and pops them through a k-way merge on the
// global (at, seq) order, which makes its event execution — and hence
// every RNG draw and stat update made from event callbacks —
// byte-identical to the serial sim.Engine's.
//
// A current-shard cursor tracks which shard's code is executing: events
// scheduled with At land on the scheduling shard's queue. The cursor is
// bookkeeping, not a correctness boundary — exact mode would execute
// identically under any placement.
type Engine struct {
	shards    []sim.Queue
	tickers   []tickerEntry
	nodeShard []int
	now       sim.Cycle
	seq       uint64
	cur       int
	stopped   bool
	fired     uint64
	pending   int
	maxDepth  int

	// tops is an index-heap over the non-empty shards, ordered by each
	// shard's head event under the global (at, seq) order; topPos maps a
	// shard to its heap slot (-1 when its queue is empty). It replaces
	// the O(K) linear scan over shard tops the merge loop used to do per
	// event with an O(log K) fix-up per push/pop.
	tops   []int
	topPos []int
}

// Engine is a drop-in Driver.
var _ Driver = (*Engine)(nil)

// New returns an exact sharded engine with k per-shard queues, at cycle
// 0 with shard 0 current.
func New(k int) *Engine {
	if k < 1 {
		panic("shard: engine needs at least one shard")
	}
	e := &Engine{
		shards: make([]sim.Queue, k),
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

// push assigns the next global sequence number and enqueues on shard k.
func (e *Engine) push(k int, at sim.Cycle, fn func(now sim.Cycle)) {
	e.seq++
	e.shards[k].Push(at, e.seq, fn)
	e.pending++
	if e.pending > e.maxDepth {
		e.maxDepth = e.pending
	}
	e.topPushed(k)
}

// topLess orders two shards by their head events under the global
// (at, seq) order. Both shards must be non-empty (they are in the
// heap).
func (e *Engine) topLess(a, b int) bool {
	aAt, aSeq, _ := e.shards[a].Top()
	bAt, bSeq, _ := e.shards[b].Top()
	if aAt != bAt {
		return aAt < bAt
	}
	return aSeq < bSeq
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

// topPopped restores the heap after shard k's head was popped: the new
// head is later (sift down) or the queue emptied (remove the shard).
func (e *Engine) topPopped(k int) {
	i := e.topPos[k]
	if e.shards[k].Len() == 0 {
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

// Now reports the current cycle.
func (e *Engine) Now() sim.Cycle { return e.now }

// Register adds a ticker on the current shard. The sweep order is
// global registration order, same as the serial engine.
func (e *Engine) Register(t sim.Ticker) {
	e.tickers = append(e.tickers, tickerEntry{shard: e.cur, t: t})
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

// Step advances one cycle: fires due events across all shards in
// global (at, seq) order via the cached top-heap merge, then ticks
// tickers in registration order. Each event and tick executes with the
// cursor on its home shard, so nested At calls land there.
func (e *Engine) Step() {
	for len(e.tops) > 0 {
		k := e.tops[0]
		at, _, _ := e.shards[k].Top()
		if at > e.now {
			break
		}
		e.cur = k
		_, fn := e.shards[k].Pop()
		e.topPopped(k)
		e.pending--
		e.fired++
		fn(e.now)
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

// Pending reports the number of unfired events across all shards.
func (e *Engine) Pending() int { return e.pending }

// EventsFired reports how many scheduled events have executed.
func (e *Engine) EventsFired() uint64 { return e.fired }

// MaxQueueDepth reports the high-water mark of total pending events.
func (e *Engine) MaxQueueDepth() int { return e.maxDepth }
