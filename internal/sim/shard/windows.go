package shard

import (
	"fmt"

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
// cross-node interaction scheduled through a NodeProxy handoff at
// least one lookahead ahead; a cross-shard handoff under the window
// barrier panics rather than silently skewing results.

// wEvent is one scheduled callback. The (at, node, seq) triple is the
// canonical key: node is the *scheduling node's index* and seq counts
// that node's own schedules, so the ordering is identical at every
// shard count. Global (setup-time) events use node -1 and a dedicated
// counter.
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
	pending  int
	maxDepth int
	handoffs uint64 // cross-shard handoffs buffered by this shard
	tight    uint64 // handoffs landing exactly on the window barrier
}

// push enqueues locally and tracks the depth high-water mark.
func (s *wShard) push(e wEvent) {
	s.q.push(e)
	s.pending++
	if s.pending > s.maxDepth {
		s.maxDepth = s.pending
	}
}

// run advances the shard from cycle `from` up to (not including) `to`:
// per cycle, due events in canonical order, then the tick sweep in
// registration order — the same phase structure as the serial engine.
func (s *wShard) run(from, to sim.Cycle) {
	for c := from; c < to; c++ {
		s.now = c
		for len(s.q.a) > 0 && s.q.a[0].at <= c {
			ev := s.q.pop()
			s.pending--
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
// NewWindows, assign the node→shard map with AssignNodes, declare the
// topology's lookahead with SetLookahead, then hand every component
// its node's proxy via ForNode. The engine itself implements
// Driver, but its At/After/Register are setup-time only: once Run
// starts, all scheduling flows through the node proxies.
type Windows struct {
	shards    []*wShard
	pool      *parallel.Pool
	workers   int // pool parallelism, cached so the meter survives Close
	nodeShard []int
	proxies   []NodeProxy
	seqs      []uint64 // per-node schedule counters (the canonical key's seq)
	gseq      uint64   // setup-time global events (node -1)
	la        sim.Cycle
	now       sim.Cycle
	windowEnd sim.Cycle
	running   bool
	stopped   bool
	windows   uint64
}

// Windows is a Driver with a per-node scheduling surface.
var _ Driver = (*Windows)(nil)

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
	w.workers = w.pool.Workers()
	for i := range w.shards {
		w.shards[i] = &wShard{out: make([][]wEvent, k)}
	}
	return w
}

// Close releases the pool's goroutines. The engine must not run again.
func (w *Windows) Close() { w.pool.Close() }

// Shards reports the shard count.
func (w *Windows) Shards() int { return len(w.shards) }

// Workers reports the pool's parallelism (1 = serial replay).
func (w *Windows) Workers() int { return w.workers }

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

// NodeShard reports the shard owning a node; out-of-range nodes map to
// shard 0, mirroring the exact engine.
func (w *Windows) NodeShard(node int) int {
	if node < 0 || node >= len(w.nodeShard) {
		return 0
	}
	return w.nodeShard[node]
}

// ForNode returns the scheduling surface for one node. The proxy is only valid from that node's own execution context
// (its events and its ticks) — that discipline is what makes the
// per-node sequence counters race-free.
func (w *Windows) ForNode(node int) Scheduler {
	if node < 0 || node >= len(w.proxies) {
		panic(fmt.Sprintf("shard: ForNode(%d) outside the assigned range [0,%d)", node, len(w.proxies)))
	}
	return &w.proxies[node]
}

// SetLookahead declares the window length: the conservative lookahead
// every cross-shard handoff must honour. Unlike the exact engine —
// where a short handoff merely bumps a meter — Windows *depends* on the
// window for correctness, so handoffs under it panic.
func (w *Windows) SetLookahead(la sim.Cycle) { w.la = la }

// Lookahead reports the declared window.
func (w *Windows) Lookahead() sim.Cycle { return w.la }

// Now reports the engine clock: the start of the next window. Inside a
// window, components read their shard-local clock through their proxy.
func (w *Windows) Now() sim.Cycle { return w.now }

// At schedules a setup-time global event on shard 0 (node -1 in the
// canonical order). Once a window is running, all scheduling must flow
// through node proxies; a bare At would have no owning node and no
// race-free queue to land on, so it panics.
func (w *Windows) At(at sim.Cycle, fn func(now sim.Cycle)) {
	if w.running {
		panic("shard: Windows.At during a window; schedule through ForNode proxies")
	}
	if at < w.now {
		panic("sim: event scheduled in the past")
	}
	w.gseq++
	w.shards[0].push(wEvent{at: at, node: -1, seq: w.gseq, fn: fn})
}

// After schedules a setup-time global event delay cycles from now.
func (w *Windows) After(delay sim.Cycle, fn func(now sim.Cycle)) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	w.At(w.now+delay, fn)
}

// Register would add a global ticker swept over every shard — exactly
// the shared mutation the windowed engine exists to eliminate — so it
// panics. Register per-node tickers through ForNode instead.
func (w *Windows) Register(sim.Ticker) {
	panic("shard: Windows has no global tickers; register per node through ForNode")
}

// Stop requests that Run return at the next window barrier.
func (w *Windows) Stop() { w.stopped = true }

// Stopped reports whether a stop has been committed at a barrier.
func (w *Windows) Stopped() bool { return w.stopped }

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
				dst.push(ev)
			}
			src.out[d] = buf[:0]
		}
	}
}

// Step advances one window (Driver's single-step, at window
// granularity: a smaller step cannot exist without violating the
// barrier discipline that makes the run partition-invariant).
func (w *Windows) Step() {
	la := w.la
	if la < 1 {
		la = 1
	}
	w.window(w.now + la)
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

// Pending reports unfired events across all shards (buffered handoffs
// excluded; between windows the buffers are always empty).
func (w *Windows) Pending() int {
	n := 0
	for _, s := range w.shards {
		n += s.pending
	}
	return n
}

// EventsFired reports how many events have executed across all shards.
func (w *Windows) EventsFired() uint64 {
	n := uint64(0)
	for _, s := range w.shards {
		n += s.fired
	}
	return n
}

// MaxQueueDepth reports the sum of per-shard queue high-water marks —
// an upper bound on the true global high-water, kept per shard so the
// meter needs no synchronization.
func (w *Windows) MaxQueueDepth() int {
	n := 0
	for _, s := range w.shards {
		n += s.maxDepth
	}
	return n
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
// declared lookahead is the binding constraint on window length, the
// windowed engine's analogue of the exact engine's UnderLookahead.
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
// a Scheduler whose events land on the node's home shard keyed by
// the node's own sequence counter, and whose Handoff buffers
// cross-shard work for the window barrier. Obtain via ForNode;
// use only from the node's own execution context.
type NodeProxy struct {
	w     *Windows
	node  int32
	shard int
}

// NodeProxy is what code on Windows schedules through.
var _ Scheduler = (*NodeProxy)(nil)

// Now reports the node's shard-local clock: the executing cycle inside
// a window, the window floor at the barrier, the global clock at setup.
func (p *NodeProxy) Now() sim.Cycle { return p.w.shards[p.shard].now }

// At schedules fn on the node's home shard at cycle at.
func (p *NodeProxy) At(at sim.Cycle, fn func(now sim.Cycle)) {
	s := p.w.shards[p.shard]
	if at < s.now {
		panic("sim: event scheduled in the past")
	}
	p.w.seqs[p.node]++
	s.push(wEvent{at: at, node: p.node, seq: p.w.seqs[p.node], fn: fn})
}

// After schedules fn delay cycles from the node's shard-local clock.
func (p *NodeProxy) After(delay sim.Cycle, fn func(now sim.Cycle)) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	p.At(p.w.shards[p.shard].now+delay, fn)
}

// Register adds a per-node ticker to the node's home shard sweep.
// Registration is setup-time only; the sweep order is registration
// order restricted to the shard, so each node's tickers keep their
// relative order at every shard count.
func (p *NodeProxy) Register(t sim.Ticker) {
	if p.w.running {
		panic("shard: ticker registered during a window")
	}
	s := p.w.shards[p.shard]
	s.tickers = append(s.tickers, wTicker{node: p.node, t: t})
}

// Stop requests a stop at the next window barrier. The request is
// shard-local until the barrier commits it, so other shards never
// observe it mid-window — which is what keeps the final cycle count
// partition-invariant.
func (p *NodeProxy) Stop() {
	s := p.w.shards[p.shard]
	s.stop = true
	if !p.w.running {
		p.w.stopped = true
	}
}

// Stopped reports the barrier-committed stop flag. Shard-local
// requests are invisible here: exposing them would leak the
// partitioning (whether a requester shares your shard) into model
// behaviour.
func (p *NodeProxy) Stopped() bool { return p.w.stopped }

// NodeShard reports the shard owning a node.
func (p *NodeProxy) NodeShard(node int) int { return p.w.NodeShard(node) }

// Handoff schedules fn on the given shard. Same-shard handoffs push
// directly (they are ordinary events). Cross-shard handoffs while a
// window is running are buffered in the shard's out-buffer for the
// barrier — and must land at or beyond the window barrier: an earlier
// cycle may already have executed on the destination shard, so the
// engine panics rather than corrupt causality. At setup time the
// destination heap is quiescent and the push is direct.
func (p *NodeProxy) Handoff(shard int, at sim.Cycle, fn func(now sim.Cycle)) {
	w := p.w
	if shard < 0 || shard >= len(w.shards) {
		panic(fmt.Sprintf("shard: Handoff to shard %d of %d", shard, len(w.shards)))
	}
	s := w.shards[p.shard]
	if shard == p.shard {
		p.At(at, fn)
		return
	}
	w.seqs[p.node]++
	ev := wEvent{at: at, node: p.node, seq: w.seqs[p.node], fn: fn}
	if !w.running {
		if at < w.now {
			panic("shard: handoff scheduled in the past")
		}
		w.shards[shard].push(ev)
		return
	}
	if at < w.windowEnd {
		panic(fmt.Sprintf("shard: cross-shard handoff at cycle %d under the window barrier %d (lookahead %d): the model broke its declared lookahead",
			at, w.windowEnd, w.la))
	}
	s.handoffs++
	if at == w.windowEnd {
		s.tight++
	}
	s.out[shard] = append(s.out[shard], ev)
}
