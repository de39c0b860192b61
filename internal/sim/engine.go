package sim

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle int64

// Ticker is a component that performs work once per cycle. The engine
// calls Tick in registration order, so registration order is part of a
// simulation's deterministic configuration.
type Ticker interface {
	Tick(now Cycle)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick calls f(now).
func (f TickFunc) Tick(now Cycle) { f(now) }

// event is a scheduled callback. Events are stored by value inside the
// queue's slab; the (at, seq) pair is unique per event, so the heap's
// pop order is a total order and identical to the old pointer-heap's.
type event struct {
	at  Cycle
	seq uint64 // tie-breaker: schedule order, for determinism
	fn  func(now Cycle)
}

// eventQueue is a value-typed 4-ary min-heap over (at, seq). One flat
// slab backs the heap; pushes and pops move events within it, so after
// an initial growth phase the cycle loop schedules events with zero
// heap allocations. The wider arity halves tree depth versus a binary
// heap, trading a few extra comparisons per level for fewer cache-line
// hops — a win at the queue depths the slot machinery produces.
type eventQueue struct {
	a []event
}

// less orders the heap by time, then by schedule order.
func (q *eventQueue) less(i, j int) bool {
	if q.a[i].at != q.a[j].at {
		return q.a[i].at < q.a[j].at
	}
	return q.a[i].seq < q.a[j].seq
}

// push inserts an event, sifting it up to its heap position.
func (q *eventQueue) push(e event) {
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

// pop removes and returns the minimum event. The vacated slot is zeroed
// so the slab does not pin the callback closure, but the slab's
// capacity is retained for reuse by later pushes.
func (q *eventQueue) pop() event {
	top := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a[n] = event{}
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

// Scheduler is the scheduling surface simulation components program
// against: the current cycle, timed callbacks, per-cycle tickers, and
// the stop request. Both the serial Engine and the sharded engine
// (internal/sim/shard) implement it, so every component runs unchanged
// under either.
type Scheduler interface {
	Now() Cycle
	At(at Cycle, fn func(now Cycle))
	After(delay Cycle, fn func(now Cycle))
	Register(t Ticker)
	Stop()
	Stopped() bool
}

// Driver extends Scheduler with the run loop and the engine counters —
// the surface the system layer and the command-line tools need to drive
// a whole simulation.
type Driver interface {
	Scheduler
	Step()
	Run(maxCycles Cycle) Cycle
	Pending() int
	EventsFired() uint64
	MaxQueueDepth() int
}

// NodeScheduler is optionally implemented by engines that expose a
// per-node scheduling surface. The parallel windowed engine
// (internal/sim/shard.Windows) returns a proxy whose At/After land on
// the node's home shard and whose Handoff buffers cross-shard work for
// the window barrier; the serial Engine and the exact sharded engine do
// not implement it — on those, components keep using the engine
// directly and ForNode is never asked for. Model code that wants to run
// unchanged on every engine resolves its per-node scheduler once at
// construction:
//
//	sched := sim.SchedulerFor(engine, node)
//
// and schedules everything through it.
type NodeScheduler interface {
	// ForNode returns the scheduling surface for a node's own events.
	// The returned Scheduler must only be used from that node's
	// execution context (its events and ticks).
	ForNode(node int) Scheduler
}

// SchedulerFor resolves the scheduler a node's component should program
// against: the node's proxy when the engine partitions nodes, the
// engine itself otherwise.
func SchedulerFor(engine Scheduler, node int) Scheduler {
	if ns, ok := engine.(NodeScheduler); ok {
		return ns.ForNode(node)
	}
	return engine
}

// Sharder is optionally implemented by engines that partition
// components into node-group shards. Networks use it to hand a packet's
// delivery (or confirmation) event to the destination node's shard;
// on the serial engine the assertion fails and callers fall back to a
// plain At. The contract: a cross-shard handoff must land at least the
// engine's declared lookahead in the future, so that shards can advance
// through a lookahead-sized epoch without observing each other.
type Sharder interface {
	// NodeShard maps a node index to its shard.
	NodeShard(node int) int
	// Handoff schedules fn on the given shard's queue.
	Handoff(shard int, at Cycle, fn func(now Cycle))
}

// The calendar wheel covers wheelSize consecutive cycles, one FIFO
// bucket per cycle. A packet's whole life on the paper's network is a
// handful of happenings a few slots ahead, so nearly every event lands
// less than one revolution out and costs O(1) to schedule and to fire;
// the rest wait in the far heap. The size is a constant, not a knob: at
// 1024 cycles under 5% of an FSOI run's events are far, under 1% on the
// mesh and crossbar networks.
const (
	wheelSize = 1 << 10
	wheelMask = wheelSize - 1
)

// wheelNode is one scheduled callback on the wheel: a link in its
// cycle's FIFO while pending, a link in the free list otherwise.
type wheelNode struct {
	fn   func(now Cycle)
	next int32
}

// Engine drives a cycle-accurate simulation: every registered Ticker runs
// once per cycle, and timed events fire at the start of their cycle,
// before tickers, in (cycle, schedule order). The zero value is not
// usable; construct with NewEngine.
//
// Events are kept on a calendar queue. One slab of wheelNodes, threaded
// into a per-cycle FIFO for each of the next wheelSize cycles plus a
// LIFO free list, holds every event less than one revolution ahead;
// events further out sit in a 4-ary heap ordered by (cycle, schedule
// order). Firing order is the order a single (cycle, seq) heap would
// give, by construction:
//
//   - within a bucket, FIFO order is schedule order;
//   - a far event for cycle T was scheduled no later than cycle
//     T-wheelSize and every wheel event for T after that cycle, so all
//     of T's far events were scheduled before all of its wheel events:
//     Step fires the far events due, then drains the bucket;
//   - a delay-0 event scheduled by a firing event joins the tail of the
//     bucket being drained and so runs in the same cycle, last.
//
// An event scheduled for the current cycle from a ticker (the cycle's
// bucket has already drained) fires at the start of the next cycle,
// before that cycle's own events, as it would from a heap; it waits in
// the far heap, which orders it ahead of everything due a cycle later.
type Engine struct {
	now     Cycle
	tickers []Ticker

	// nodes[0] is a sentinel: index 0 means "none", so the zero head and
	// tail arrays are a wheel of empty buckets.
	nodes      []wheelNode
	free       int32
	head, tail [wheelSize]int32
	near       int // events on the wheel

	far     eventQueue
	seq     uint64 // schedule order among far events
	ticking bool   // the current cycle's bucket has drained

	stopped  bool
	fired    uint64
	maxDepth int
}

// NewEngine returns an engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{nodes: make([]wheelNode, 1)}
}

// Engine is the reference Driver implementation.
var _ Driver = (*Engine)(nil)

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Register adds a ticker. Tickers run in registration order each cycle.
func (e *Engine) Register(t Ticker) {
	e.tickers = append(e.tickers, t)
}

// At schedules fn to run at cycle at. Scheduling in the past panics:
// silent reordering would corrupt causality.
func (e *Engine) At(at Cycle, fn func(now Cycle)) {
	d := at - e.now
	if d < 0 {
		panic("sim: event scheduled in the past")
	}
	if d >= wheelSize || (d == 0 && e.ticking) {
		e.seq++
		e.far.push(event{at: at, seq: e.seq, fn: fn})
	} else {
		i := e.free
		if i != 0 {
			e.free = e.nodes[i].next
			e.nodes[i] = wheelNode{fn: fn}
		} else {
			i = int32(len(e.nodes))
			e.nodes = append(e.nodes, wheelNode{fn: fn})
		}
		b := at & wheelMask
		if t := e.tail[b]; t != 0 {
			e.nodes[t].next = i
		} else {
			e.head[b] = i
		}
		e.tail[b] = i
		e.near++
	}
	if depth := e.Pending(); depth > e.maxDepth {
		e.maxDepth = depth
	}
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func(now Cycle)) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+delay, fn)
}

// Stop requests that Run return at the end of the current cycle.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Step advances one cycle: fires due events, then ticks all tickers.
func (e *Engine) Step() {
	for len(e.far.a) > 0 && e.far.a[0].at <= e.now {
		ev := e.far.pop()
		e.fired++
		ev.fn(e.now)
	}
	// The head is re-read after every callback: a firing event may append
	// to this very bucket. The node is unlinked and freed before its
	// callback runs, so Pending never counts the event being fired and
	// the callback's own scheduling reuses the slot.
	b := e.now & wheelMask
	for i := e.head[b]; i != 0; i = e.head[b] {
		n := &e.nodes[i]
		fn := n.fn
		e.head[b] = n.next
		if n.next == 0 {
			e.tail[b] = 0
		}
		*n = wheelNode{next: e.free}
		e.free = i
		e.near--
		e.fired++
		fn(e.now)
	}
	e.ticking = true
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
	e.ticking = false
	e.now++
}

// Run executes up to maxCycles cycles, stopping early if Stop is called.
// It returns the number of cycles actually executed.
func (e *Engine) Run(maxCycles Cycle) Cycle {
	start := e.now
	for e.now-start < maxCycles && !e.stopped {
		e.Step()
	}
	return e.now - start
}

// Pending reports the number of unfired events; useful in tests.
func (e *Engine) Pending() int { return e.near + len(e.far.a) }

// EventsFired reports how many scheduled events have executed — a cheap
// built-in profile of how event-heavy a run was (fsoisim -profile
// prints it next to the host-side pprof data).
func (e *Engine) EventsFired() uint64 { return e.fired }

// MaxQueueDepth reports the high-water mark of the event queue, the
// slab capacity a rerun of the same configuration will converge to.
func (e *Engine) MaxQueueDepth() int { return e.maxDepth }
