package sim

import "math"

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

// Engine drives a cycle-accurate simulation: timed events fire at the
// start of their cycle in (cycle, schedule order), then the tickers run
// in registration order, each added with Register every cycle and each
// added with Sleeper only on the cycles it has been woken for. The zero
// value is not usable; construct with NewEngine.
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
//
// A cycle with no event due and no ticker due does nothing but advance
// the clock, so when no always-on ticker is registered Run jumps over a
// run of them in one step (Step never does).
type Engine struct {
	now     Cycle
	tickers []tickerSlot
	always  int // tickers added with Register: while any is, Run never jumps
	turn    int // index of the ticker running in the tick phase

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

// NewEngine returns an engine at cycle 0. Given the engine of a finished
// simulation, it returns that engine emptied instead: the wheel's node
// slab, the far heap and the ticker slice keep their storage, and every
// event, ticker, counter and the clock are gone, so nothing tells it from
// a new one. The donor is spent: whoever held it must not use it again.
func NewEngine(donor ...*Engine) *Engine {
	if len(donor) == 0 || donor[0] == nil {
		return &Engine{nodes: make([]wheelNode, 1)}
	}
	// Field by field: `*e = Engine{...}` would build the 8 KB struct in
	// NewEngine's stack frame, which every caller, donor or not, would pay
	// for in stack growth.
	e := donor[0]
	clear(e.nodes)
	clear(e.far.a)
	clear(e.tickers)
	clear(e.head[:])
	clear(e.tail[:])
	e.nodes, e.far.a, e.tickers = e.nodes[:1], e.far.a[:0], e.tickers[:0]
	e.now, e.always, e.turn, e.free, e.near = 0, 0, 0, 0, 0
	e.seq, e.ticking, e.stopped, e.fired, e.maxDepth = 0, false, false, 0, 0
	return e
}

// never is the due cycle of a sleeper no one has woken.
const never = Cycle(math.MaxInt64)

// tickerSlot is one registered ticker and the first cycle it is due in:
// math.MinInt64 for an always-on ticker, whose due cycle never moves,
// and never for a sleeper until it is woken.
type tickerSlot struct {
	t      Ticker
	due    Cycle
	sleeps bool
}

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Register adds a ticker that runs every cycle. Tickers, sleepers
// included, run in registration order.
func (e *Engine) Register(t Ticker) {
	e.tickers = append(e.tickers, tickerSlot{t: t, due: math.MinInt64})
	e.always++
}

// Wake is the alarm of a ticker registered with Sleeper. The zero Wake
// belongs to no ticker (a component whose driver ticks it directly):
// waking it does nothing.
type Wake struct {
	e *Engine
	i int
}

// Sleeper registers t on e to run only on the cycles it is woken for
// (Wake.At says which), and returns its alarm. The sleeper takes its
// turn among the tickers in registration order and is asleep again when
// Tick is called: whoever gives it work re-arms it, Tick included.
func Sleeper(e *Engine, t Ticker) Wake {
	e.tickers = append(e.tickers, tickerSlot{t: t, due: never, sleeps: true})
	return Wake{e: e, i: len(e.tickers) - 1}
}

// At wakes the sleeper for cycle at. A sleeper woken for several cycles
// runs in the earliest; each run consumes every wake it had. A cycle at
// or before now means the current cycle if the sleeper's turn in the
// tick phase is still to come, and the next cycle if it has come: that
// is the first cycle in which a ticker called every cycle would find the
// work.
func (w Wake) At(at Cycle) {
	e := w.e
	if e == nil {
		return
	}
	if at <= e.now {
		at = e.now
		if e.ticking && e.turn >= w.i {
			at++
		}
	}
	if s := &e.tickers[w.i]; at < s.due {
		s.due = at
	}
}

// Due reports the first cycle the sleeper is due in: math.MaxInt64
// while no one has woken it, and math.MinInt64 for the zero Wake.
func (w Wake) Due() Cycle {
	if w.e == nil {
		return math.MinInt64
	}
	return w.e.tickers[w.i].due
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

// Step advances one cycle: fires due events, then runs the tickers due.
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
	for i := range e.tickers {
		s := &e.tickers[i]
		if s.due > e.now {
			continue
		}
		if s.sleeps {
			s.due = never
		}
		e.turn = i
		s.t.Tick(e.now)
	}
	e.ticking = false
	e.now++
}

// Run executes up to maxCycles cycles, stopping early if Stop is called.
// It returns the number of cycles actually executed. With no always-on
// ticker registered, it jumps from a cycle with nothing due straight to
// the next that has something (an event or a sleeper), or to its limit;
// the skipped cycles would each have done nothing but advance the clock.
func (e *Engine) Run(maxCycles Cycle) Cycle {
	start := e.now
	end := start + min(maxCycles, never-start)
	for e.now < end && !e.stopped {
		if e.always == 0 && e.head[e.now&wheelMask] == 0 {
			if e.now = e.nextDue(end); e.now == end {
				break
			}
		}
		e.Step()
	}
	return e.now - start
}

// nextDue returns the first cycle from now on in which an event or a
// ticker is due, or end if none is before it. The current cycle's
// bucket is empty.
func (e *Engine) nextDue(end Cycle) Cycle {
	now := e.now
	if len(e.far.a) > 0 && e.far.a[0].at <= now {
		return now
	}
	next := end
	if len(e.far.a) > 0 {
		next = min(next, e.far.a[0].at)
	}
	for i := range e.tickers {
		next = min(next, e.tickers[i].due)
	}
	if next <= now {
		return now
	}
	// Every wheel event is due within one revolution.
	if e.near > 0 {
		for c := now + 1; c < next; c++ {
			if e.head[c&wheelMask] != 0 {
				return c
			}
		}
	}
	return next
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
