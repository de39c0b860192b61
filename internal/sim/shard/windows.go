package shard

import (
	"fsoi/internal/parallel"
	"fsoi/internal/sim"
)

// This file implements the second engine in the package: Windows, the
// conservative parallel runner for full CMP simulations. Where the
// exact Engine proves the sharded schedule preserves the serial order
// on one goroutine, Windows actually runs the shards concurrently: all
// shards advance through lookahead-wide windows [T, T+LA) on a
// persistent parallel.Pool, draining their own event queues and tick
// sweeps locally, and cross-shard handoffs are buffered per (src, dst)
// shard pair and committed into the destination heaps at the window
// barrier.
//
// The determinism contract differs from the exact engine's. Exact mode
// is byte-identical to the *serial* engine; Windows is byte-identical
// to *itself* at every shard count and every worker count. Worker-count
// invariance is structural: within a window shards touch only their own
// state, their own out-buffers, and their own nodes' sequence counters,
// and the commit order is invisible because the heap key is a total
// order.
// Shard-count invariance is a model contract made checkable: every
// event carries the partition-invariant key (at, schedulingNode,
// perNodeSeq) — never a shard index, never a global counter — so the
// event order each node observes is a pure function of the model, not
// of the partitioning. Models must in turn draw randomness from
// per-node streams and keep mutable state node-owned, with every
// cross-node interaction handed off at least one lookahead ahead into
// the shard's out-buffer for the barrier. No model runs here any more,
// so the proxies' cross-shard handoff lives in this package's tests,
// which are what still fill the out-buffers.

// wEvent is one scheduled callback. The (at, node, seq) triple is the
// canonical key: node is the *scheduling node's index* and seq counts
// that node's own schedules, so the ordering is identical at every
// shard count.
type wEvent struct {
	at   sim.Cycle
	node int32
	seq  uint64
	fn   func(now sim.Cycle)
}

// wQueue is a value-typed 4-ary min-heap over (at, node, seq) — the
// serial engine's slab heap with the partition-invariant key.
type wQueue struct {
	a []wEvent
}

// less orders by time, then scheduling node, then that node's schedule
// order. Every component is partition-invariant, and the triple is
// unique, so the pop order is a total order independent of how events
// entered the heap.
func (q *wQueue) less(i, j int) bool {
	if q.a[i].at != q.a[j].at {
		return q.a[i].at < q.a[j].at
	}
	if q.a[i].node != q.a[j].node {
		return q.a[i].node < q.a[j].node
	}
	return q.a[i].seq < q.a[j].seq
}

// push inserts an event, sifting it up to its heap position.
func (q *wQueue) push(e wEvent) {
	q.a = append(q.a, e)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(i, p) {
			break
		}
		q.a[i], q.a[p] = q.a[p], q.a[i]
		i = p
	}
}

// pop removes and returns the minimum event, zeroing the vacated slot
// so the slab does not pin the callback closure.
func (q *wQueue) pop() wEvent {
	top := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a[n] = wEvent{}
	q.a = q.a[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for k := c + 1; k < hi; k++ {
			if q.less(k, best) {
				best = k
			}
		}
		if !q.less(best, i) {
			break
		}
		q.a[i], q.a[best] = q.a[best], q.a[i]
		i = best
	}
	return top
}

// wTicker pins a registered ticker to its owning node for the shard's
// per-cycle sweep.
type wTicker struct {
	node int32
	t    sim.Ticker
}

// wShard is one shard's private world: its event heap, its tickers,
// its window-local clock, its outgoing handoff buffers, and its
// meters. Everything here is touched only by the shard's worker while
// a window runs and only by the coordinating goroutine at the barrier,
// so no field needs synchronization beyond the pool's own
// happens-before edges.
type wShard struct {
	q       wQueue
	tickers []wTicker
	now     sim.Cycle
	out     [][]wEvent // buffered cross-shard handoffs, indexed by destination shard
	stop    bool

	fired    uint64
	handoffs uint64 // cross-shard handoffs buffered by this shard
	tight    uint64 // handoffs landing exactly on the window barrier
}

// run advances the shard from cycle `from` up to (not including) `to`:
// per cycle, due events in canonical order, then the tick sweep in
// registration order — the same phase structure as the serial engine.
func (s *wShard) run(from, to sim.Cycle) {
	for c := from; c < to; c++ {
		s.now = c
		for len(s.q.a) > 0 && s.q.a[0].at <= c {
			ev := s.q.pop()
			s.fired++
			ev.fn(c)
		}
		for _, te := range s.tickers {
			te.t.Tick(c)
		}
	}
	s.now = to
}

// Windows is the conservative parallel engine. Construct with
// NewWindows, assign the node→shard map with AssignNodes and declare
// the topology's lookahead with SetLookahead. All scheduling flows
// through the node proxies.
type Windows struct {
	shards    []*wShard
	pool      *parallel.Pool
	nodeShard []int
	proxies   []NodeProxy
	seqs      []uint64 // per-node schedule counters (the canonical key's seq)
	la        sim.Cycle
	now       sim.Cycle
	windowEnd sim.Cycle
	running   bool
	stopped   bool
	windows   uint64
}

// NewWindows returns a windowed engine with k shards executed by up to
// `workers` pool goroutines per window. workers <= 1 builds a serial
// pool — no goroutines at all — which is the serial replay mode: the
// same engine, the same event order, one thread. The pool is owned by
// the engine; release it with Close.
func NewWindows(k, workers int) *Windows {
	if k < 1 {
		panic("shard: windowed engine needs at least one shard")
	}
	w := &Windows{
		shards: make([]*wShard, k),
		pool:   parallel.NewPool(workers),
	}
	for i := range w.shards {
		w.shards[i] = &wShard{out: make([][]wEvent, k)}
	}
	return w
}

// Close releases the pool's goroutines. The engine must not run again.
func (w *Windows) Close() { w.pool.Close() }

// AssignNodes maps nodes 0..nodes-1 onto shards in contiguous balanced
// blocks (node i on shard i*K/nodes, like the exact engine) and builds
// the per-node proxies and sequence counters.
func (w *Windows) AssignNodes(nodes int) {
	w.nodeShard = make([]int, nodes)
	w.seqs = make([]uint64, nodes)
	w.proxies = make([]NodeProxy, nodes)
	for i := range w.nodeShard {
		k := i * len(w.shards) / nodes
		w.nodeShard[i] = k
		w.proxies[i] = NodeProxy{w: w, node: int32(i), shard: k}
	}
}

// SetLookahead declares the window length: the conservative lookahead
// every cross-shard handoff must honour. Windows *depends* on the
// window for correctness, so handoffs under it panic.
func (w *Windows) SetLookahead(la sim.Cycle) { w.la = la }

// window executes one window [now, end): all shards on the pool, then
// the barrier commit.
func (w *Windows) window(end sim.Cycle) {
	w.windowEnd = end
	start := w.now
	w.running = true
	w.pool.Run(len(w.shards), func(k int) {
		w.shards[k].run(start, end)
	})
	w.running = false
	w.commit()
	w.now = end
	w.windows++
}

// commit is the barrier: collect shard-local stop requests into the
// engine flag and flush every out-buffer into its destination heap.
// The insertion order (src shard ascending) is irrelevant to the pop
// order because the heap key is total and partition-invariant — that
// is the whole point of the (at, node, seq) key.
func (w *Windows) commit() {
	for _, s := range w.shards {
		if s.stop {
			w.stopped = true
		}
	}
	for _, src := range w.shards {
		for d, buf := range src.out {
			if len(buf) == 0 {
				continue
			}
			dst := w.shards[d]
			for _, ev := range buf {
				dst.q.push(ev)
			}
			src.out[d] = buf[:0]
		}
	}
}

// Run executes up to maxCycles cycles in lookahead-wide windows,
// stopping at the first barrier after a stop request. The final window
// is clamped to the horizon. Because stops only commit at barriers,
// the cycle count — and therefore every "cycles" metric downstream —
// is identical at every shard and worker count.
func (w *Windows) Run(maxCycles sim.Cycle) sim.Cycle {
	start := w.now
	end := start + maxCycles
	la := w.la
	if la < 1 {
		la = 1
	}
	for w.now < end && !w.stopped {
		we := w.now + la
		if we > end {
			we = end
		}
		w.window(we)
	}
	return w.now - start
}

// Handoffs reports how many cross-shard handoffs were buffered over
// the run — the window traffic the barrier had to commit.
func (w *Windows) Handoffs() uint64 {
	n := uint64(0)
	for _, s := range w.shards {
		n += s.handoffs
	}
	return n
}

// TightHandoffs reports how many handoffs landed exactly on their
// window barrier — zero slack. A high tight fraction means the
// declared lookahead is the binding constraint on window length.
func (w *Windows) TightHandoffs() uint64 {
	n := uint64(0)
	for _, s := range w.shards {
		n += s.tight
	}
	return n
}

// Windows reports how many windows (pool barriers) the run executed —
// with TightHandoffs, the barrier-occupancy meter: windows × shards is
// the total number of shard-window executions the pool scheduled.
func (w *Windows) WindowCount() uint64 { return w.windows }

// NodeProxy is one node's scheduling surface on the windowed engine:
// its events land on the node's home shard keyed by
// the node's own sequence counter. Use it only from the node's own
// execution context (its events and its ticks) — that discipline is
// what makes the per-node sequence counters race-free.
type NodeProxy struct {
	w     *Windows
	node  int32
	shard int
}
