// Package cpu models the processor cores driving the memory hierarchy: a
// sequential timing core with a store buffer, blocking loads, and
// synchronization operations delegated to a pluggable fabric (coherent
// ll/sc spinning or the §5.1 confirmation-channel path).
//
// The paper runs Alpha binaries on an adapted SimpleScalar; here the
// instruction stream is replaced by workload-generated operation streams
// (see internal/workload), preserving the traffic the interconnect study
// depends on — see DESIGN.md's substitution table.
package cpu

import (
	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/sim"
)

// OpKind enumerates core operations.
type OpKind int

// Operation kinds.
const (
	OpCompute OpKind = iota
	OpLoad
	OpStore
	OpLockAcquire
	OpLockRelease
	OpBarrier
)

// Op is one unit of work for a core.
type Op struct {
	Kind   OpKind
	Addr   cache.LineAddr // loads/stores
	Cycles int            // compute duration
	ID     int            // lock or barrier id
}

// Stream supplies a core's operations. Next returns false when the
// thread has finished its work.
type Stream interface {
	Next() (Op, bool)
}

// SyncFabric executes synchronization operations; the system layer
// provides either the coherent-spinning implementation or the
// confirmation-channel implementation depending on network capabilities.
type SyncFabric interface {
	Acquire(core int, id int, done func(now sim.Cycle))
	Release(core int, id int, done func(now sim.Cycle))
	Barrier(core int, id int, done func(now sim.Cycle))
}

// Config sizes a core.
type Config struct {
	StoreBuffer int // outstanding stores tolerated before stalling (16)
}

// PaperCore returns the evaluation core model.
func PaperCore() Config { return Config{StoreBuffer: 16} }

// Stats counts core activity.
type Stats struct {
	Ops          int64
	Loads        int64
	Stores       int64
	ComputeCyc   int64
	LockAcquires int64
	Barriers     int64
	StallLoad    int64 // cycles blocked on loads
	StallStore   int64
	StallSync    int64
	FinishCycle  sim.Cycle
}

// Core is one processor.
type Core struct {
	id     int
	cfg    Config
	engine *sim.Engine
	l1     *coherence.L1
	stream Stream
	sync   SyncFabric
	stats  Stats

	storesOut int
	storeWait func(now sim.Cycle) // resume when a store drains
	done      bool
	onFinish  func(core int, now sim.Cycle)

	loadStart sim.Cycle // issue cycle of the one outstanding (blocking) load
	finishing bool      // the stream is exhausted; stores are still draining
	finishAt  sim.Cycle // the cycle finish found them outstanding (the engine's, not step's nominal one)

	// Method values bound once: every op schedules one of these, and a
	// fresh c.step per op would be a heap allocation per op.
	stepFn      func(now sim.Cycle)
	finishFn    func(now sim.Cycle)
	loadDoneFn  func(now sim.Cycle)
	storeDoneFn func(now sim.Cycle)
}

// New builds a core; onFinish fires once when the stream is exhausted and
// all stores have drained. Given the core of a finished simulation, which
// no one drives any more, it resets and returns that one, keeping the
// method values bound to it.
func New(id int, cfg Config, engine *sim.Engine, l1 *coherence.L1, stream Stream, sync SyncFabric, onFinish func(int, sim.Cycle), donor ...*Core) *Core {
	var c *Core
	if len(donor) > 0 && donor[0] != nil {
		c = donor[0]
		*c = Core{stepFn: c.stepFn, finishFn: c.finishFn, loadDoneFn: c.loadDoneFn, storeDoneFn: c.storeDoneFn}
	} else {
		c = new(Core)
		c.stepFn, c.finishFn, c.loadDoneFn, c.storeDoneFn = c.step, c.finish, c.loadDone, c.storeDone
	}
	c.id, c.cfg, c.engine, c.l1, c.stream, c.sync, c.onFinish = id, cfg, engine, l1, stream, sync, onFinish
	return c
}

// Stats exposes the counters.
func (c *Core) Stats() *Stats { return &c.stats }

// Done reports completion.
func (c *Core) Done() bool { return c.done }

// Start begins execution at the current cycle.
func (c *Core) Start() {
	c.engine.After(0, c.stepFn)
}

// step executes the next operation.
func (c *Core) step(now sim.Cycle) {
	op, ok := c.stream.Next()
	if !ok {
		c.finish(now)
		return
	}
	c.stats.Ops++
	switch op.Kind {
	case OpCompute:
		c.stats.ComputeCyc += int64(op.Cycles)
		c.engine.After(sim.Cycle(op.Cycles), c.stepFn)
	case OpLoad:
		c.stats.Loads++
		c.loadStart = now
		c.l1.AccessRetry(op.Addr, false, c.loadDoneFn)
	case OpStore:
		c.stats.Stores++
		if c.storesOut >= c.cfg.StoreBuffer {
			// Store buffer full: block until one drains.
			start := now
			c.storeWait = func(at sim.Cycle) {
				c.stats.StallStore += int64(at - start)
				c.issueStore(op.Addr, at)
				c.step(at + 1)
			}
			return
		}
		c.issueStore(op.Addr, now)
		c.engine.After(1, c.stepFn)
	case OpLockAcquire:
		c.stats.LockAcquires++
		c.drainThen(now, func(at sim.Cycle) {
			start := at
			c.sync.Acquire(c.id, op.ID, func(end sim.Cycle) {
				c.stats.StallSync += int64(end - start)
				c.step(end)
			})
		})
	case OpLockRelease:
		c.drainThen(now, func(at sim.Cycle) {
			c.sync.Release(c.id, op.ID, c.stepFn)
		})
	case OpBarrier:
		c.stats.Barriers++
		c.drainThen(now, func(at sim.Cycle) {
			start := at
			c.sync.Barrier(c.id, op.ID, func(end sim.Cycle) {
				c.stats.StallSync += int64(end - start)
				c.step(end)
			})
		})
	}
}

// loadDone resumes the core when its blocking load commits.
func (c *Core) loadDone(at sim.Cycle) {
	c.stats.StallLoad += int64(at - c.loadStart)
	c.step(at)
}

// issueStore fires a non-blocking store through the L1.
func (c *Core) issueStore(addr cache.LineAddr, now sim.Cycle) {
	c.storesOut++
	c.l1.AccessRetry(addr, true, c.storeDoneFn)
}

// storeDone retires one store: it unblocks a core stalled on a full
// store buffer, and wakes a finishing core when the last store drains.
func (c *Core) storeDone(at sim.Cycle) {
	c.storesOut--
	if w := c.storeWait; w != nil && c.storesOut < c.cfg.StoreBuffer {
		c.storeWait = nil
		w(at)
	}
	if c.finishing && c.storesOut == 0 {
		c.finishing = false
		if at > c.finishAt {
			c.finish(at)
		} else {
			c.engine.After(1, c.finishFn)
		}
	}
}

// drainThen waits for the store buffer to empty (release consistency at
// synchronization points) before running fn.
func (c *Core) drainThen(now sim.Cycle, fn func(now sim.Cycle)) {
	if c.storesOut == 0 {
		fn(now)
		return
	}
	c.engine.After(1, func(at sim.Cycle) { c.drainThen(at, fn) })
}

// finish completes the thread once stores drain. With stores still
// outstanding it notes the cycle and returns; storeDone calls back when
// the last one retires. The thread finishes in exactly the cycle a poll
// repeated every cycle from here would have finished it in:
//
//   - A store retires in an event its L1 scheduled HitCycles earlier; the
//     poll for a cycle would have been scheduled the cycle before. With
//     HitCycles >= 2 (PaperL1's value, the only one non-test code uses)
//     the poll of any later cycle therefore runs after that cycle's
//     retirements, and the thread finishes in the cycle its last store
//     retires.
//   - Only in this very cycle can a retirement come after the check; the
//     first poll to see it would be the next cycle's.
//
// Where inside the cycle the thread finishes is not observable: onFinish
// only counts, a lookahead later.
func (c *Core) finish(now sim.Cycle) {
	if c.storesOut > 0 {
		c.finishing, c.finishAt = true, c.engine.Now()
		return
	}
	if c.done {
		return
	}
	c.done = true
	c.stats.FinishCycle = now
	if c.onFinish != nil {
		c.onFinish(c.id, now)
	}
}
