package system

import (
	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/cpu"
	"fsoi/internal/sim"
)

// syncFabric is the system-side synchronization implementation handed to
// the cores; it extends cpu.SyncFabric with the delivery hooks the system
// routes into it.
type syncFabric interface {
	cpu.SyncFabric
	onBit(node int, tag uint64, value bool, now sim.Cycle)
	onSyncResp(m coherence.Msg, now sim.Cycle)
	setBarrierTarget(id, target int)
}

// ---------------------------------------------------------------------
// Subscription fabric: the §5.1 path. Lock and barrier state lives at
// the home directory; requests are meta packets and replies/updates ride
// reserved confirmation mini-cycles.
// ---------------------------------------------------------------------

type subscriptionSync struct {
	s  *System
	tr transport
	// Per-node continuations keyed by tag (one outstanding sync op per
	// core by construction of the core model); a node's map is made by
	// its first wait.
	waiting []map[uint64]func(value bool, now sim.Cycle)
}

func newSubscriptionSync(s *System, tr transport) *subscriptionSync {
	return &subscriptionSync{s: s, tr: tr, waiting: make([]map[uint64]func(bool, sim.Cycle), s.cfg.Nodes)}
}

// wait registers fn as core's one-shot continuation for tag.
func (f *subscriptionSync) wait(core int, tag uint64, fn func(value bool, now sim.Cycle)) {
	if f.waiting[core] == nil {
		f.waiting[core] = make(map[uint64]func(bool, sim.Cycle))
	}
	f.waiting[core][tag] = fn
}

// home spreads sync objects across directories.
func (f *subscriptionSync) home(id int) int { return id % f.s.cfg.Nodes }

func (f *subscriptionSync) request(core int, op coherence.SyncOp, id int) {
	m := coherence.Msg{
		Type: coherence.SyncReq, Op: op, SyncID: id,
		From: core, To: f.home(id),
	}
	if !f.tr.Send(m) {
		f.s.retrySend(m)
	}
}

// Acquire sends the sc-through-request and waits for the single-bit
// reply; on failure it waits for the release update and re-attempts.
func (f *subscriptionSync) Acquire(core int, id int, done func(now sim.Cycle)) {
	replyTag := coherence.LockTag(id, false)
	updateTag := coherence.LockTag(id, true)
	var attempt func()
	attempt = func() {
		f.wait(core, replyTag, func(got bool, now sim.Cycle) {
			if got {
				delete(f.waiting[core], updateTag)
				done(now)
				return
			}
			// Subscribed: re-attempt on the next update push (handlers
			// are one-shot, so each attempt re-registers both).
			f.wait(core, updateTag, func(_ bool, at sim.Cycle) { attempt() })
		})
		f.request(core, coherence.SyncAcquire, id)
	}
	attempt()
}

// Release frees the lock; completion is local (the release packet is
// confirmed by the network independently), so the done event fires a
// cycle later.
func (f *subscriptionSync) Release(core int, id int, done func(now sim.Cycle)) {
	f.request(core, coherence.SyncRelease, id)
	f.s.engine.After(1, done)
}

// Barrier arrives and waits for the release push.
func (f *subscriptionSync) Barrier(core int, id int, done func(now sim.Cycle)) {
	replyTag := coherence.BarrierTag(id, false)
	updateTag := coherence.BarrierTag(id, true)
	f.wait(core, updateTag, func(_ bool, now sim.Cycle) {
		delete(f.waiting[core], replyTag)
		done(now)
	})
	f.wait(core, replyTag, func(bool, sim.Cycle) {}) // "wait" ack
	f.request(core, coherence.SyncArrive, id)
}

func (f *subscriptionSync) onBit(node int, tag uint64, value bool, now sim.Cycle) {
	if fn := f.waiting[node][tag]; fn != nil {
		delete(f.waiting[node], tag)
		fn(value, now)
	}
}

func (f *subscriptionSync) onSyncResp(m coherence.Msg, now sim.Cycle) {
	// The directory falls back to SyncResp packets only without the
	// confirmation channel; route identically.
	f.onBit(m.To, uint64(m.SyncID), m.Value, now)
}

func (f *subscriptionSync) setBarrierTarget(id, target int) {
	// Directory-side targets are set by the system during Run.
}

// ---------------------------------------------------------------------
// Coherent fabric: conventional ll/sc spinning through the cache
// hierarchy. Lock and barrier values live on ordinary cache lines; the
// fabric's tables hold the values while the coherence traffic provides
// the timing (test-and-test-and-set, invalidate-and-reread spinning).
// ---------------------------------------------------------------------

// Sync line addresses live above the workload regions.
const syncBase cache.LineAddr = 1 << 28

func lockLine(id int) cache.LineAddr { return syncBase + cache.LineAddr(2*id) }
func barrierLine(id int) cache.LineAddr {
	return syncBase + cache.LineAddr(1<<16) + cache.LineAddr(2*id)
}
func flagLine(id int) cache.LineAddr { return barrierLine(id) + 1 }

type coherentBarrier struct {
	count  int
	target int
	epoch  int
}

type coherentSync struct {
	s        *System
	held     map[int]bool // lock id -> held
	barriers map[int]*coherentBarrier
}

func newCoherentSync(s *System) *coherentSync {
	return &coherentSync{s: s, held: make(map[int]bool), barriers: make(map[int]*coherentBarrier)}
}

func (f *coherentSync) barrier(id int) *coherentBarrier {
	b := f.barriers[id]
	if b == nil {
		b = &coherentBarrier{target: 1}
		f.barriers[id] = b
	}
	return b
}

func (f *coherentSync) setBarrierTarget(id, target int) {
	f.barrier(id).target = target
}

// Acquire spins test-and-test-and-set: read the lock line; if free,
// upgrade to exclusive and claim atomically; otherwise wait for the line
// to be invalidated (the release's write) and retry. A slow periodic
// re-poll guards against lost wakeups.
func (f *coherentSync) Acquire(core int, id int, done func(now sim.Cycle)) {
	l1 := f.s.l1s[core]
	addr := lockLine(id)
	var attempt func(now sim.Cycle)
	waitInv := func(now sim.Cycle) {
		woke := false
		wake := func(at sim.Cycle) {
			if !woke {
				woke = true
				attempt(at)
			}
		}
		l1.OnInvalidate(addr, wake)
		f.s.engine.After(2500, wake)
	}
	attempt = func(now sim.Cycle) {
		l1.AccessRetry(addr, false, func(at sim.Cycle) {
			if f.held[id] {
				waitInv(at)
				return
			}
			// Looks free: take it with an exclusive access (ll/sc pair).
			l1.AccessRetry(addr, true, func(end sim.Cycle) {
				if f.held[id] {
					// sc failed: someone else won the race.
					waitInv(end)
					return
				}
				f.held[id] = true
				done(end)
			})
		})
	}
	attempt(f.s.engine.Now())
}

// Release writes the lock line, invalidating the spinners.
func (f *coherentSync) Release(core int, id int, done func(now sim.Cycle)) {
	l1 := f.s.l1s[core]
	l1.AccessRetry(lockLine(id), true, func(at sim.Cycle) {
		f.held[id] = false
		done(at)
	})
}

// Barrier is a combining-tree-free central barrier: lock-protected
// counter increment, then spinning on the flag line (invalidate + reread).
func (f *coherentSync) Barrier(core int, id int, done func(now sim.Cycle)) {
	b := f.barrier(id)
	myEpoch := b.epoch
	l1 := f.s.l1s[core]
	f.Acquire(core, 1<<20|id, func(now sim.Cycle) {
		// Update the barrier counter line under the lock.
		l1.AccessRetry(barrierLine(id), true, func(at sim.Cycle) {
			b.count++
			last := b.count >= b.target
			f.Release(core, 1<<20|id, func(rel sim.Cycle) {
				if last {
					b.count = 0
					b.epoch++
					// Release the spinners by writing the flag line.
					l1.AccessRetry(flagLine(id), true, func(end sim.Cycle) {
						done(end)
					})
					return
				}
				f.spinFlag(core, id, myEpoch, done)
			})
		})
	})
}

// spinFlag rereads the flag line until the epoch advances.
func (f *coherentSync) spinFlag(core, id, epoch int, done func(now sim.Cycle)) {
	b := f.barrier(id)
	l1 := f.s.l1s[core]
	addr := flagLine(id)
	var poll func(now sim.Cycle)
	poll = func(now sim.Cycle) {
		l1.AccessRetry(addr, false, func(at sim.Cycle) {
			if b.epoch > epoch {
				done(at)
				return
			}
			woke := false
			wake := func(w sim.Cycle) {
				if !woke {
					woke = true
					poll(w)
				}
			}
			l1.OnInvalidate(addr, wake)
			f.s.engine.After(2500, wake)
		})
	}
	poll(f.s.engine.Now())
}

func (f *coherentSync) onBit(node int, tag uint64, value bool, now sim.Cycle) {}

func (f *coherentSync) onSyncResp(m coherence.Msg, now sim.Cycle) {}

// Ensure the fabrics satisfy the core-facing interface.
var (
	_ syncFabric = (*subscriptionSync)(nil)
	_ syncFabric = (*coherentSync)(nil)
)
