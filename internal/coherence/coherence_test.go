package coherence

import (
	"testing"

	"fsoi/internal/cache"
	"fsoi/internal/sim"
)

// rig is a miniature CMP for protocol tests: n nodes, every line homed at
// node 0, a 1-cycle ordered message fabric, and a stub memory controller
// answering after a fixed delay. It enforces the §4.4 per-(src,dst,line)
// ordering invariant the real system provides.
type rig struct {
	t       *testing.T
	engine  *sim.Engine
	l1s     []*L1
	dir     *Directory
	elide   bool
	boolean bool
	memLat  sim.Cycle

	inFlight map[[3]uint64]bool
	queued   map[[3]uint64][]Msg
	sent     []Msg
	sentAt   []sim.Cycle // the cycle each entry of sent left its controller
	bits     []bitEvent
	blockNet bool // force Send to fail (backpressure tests)
}

type bitEvent struct {
	src, dst int
	tag      uint64
	value    bool
}

func key(m Msg) [3]uint64 {
	return [3]uint64{uint64(m.From), uint64(m.To), uint64(m.Addr)}
}

func (r *rig) Send(m Msg) bool {
	if r.blockNet {
		return false
	}
	r.sent = append(r.sent, m)
	r.sentAt = append(r.sentAt, r.engine.Now())
	k := key(m)
	if r.inFlight[k] {
		r.queued[k] = append(r.queued[k], m)
		return true
	}
	r.inFlight[k] = true
	r.launch(m)
	return true
}

func (r *rig) launch(m Msg) {
	r.engine.After(1, func(now sim.Cycle) {
		r.deliver(m, now)
		k := key(m)
		if q := r.queued[k]; len(q) > 0 {
			r.queued[k] = q[1:]
			r.launch(q[0])
		} else {
			delete(r.inFlight, k)
		}
	})
}

func (r *rig) deliver(m Msg, now sim.Cycle) {
	switch m.Type {
	case ReqMem:
		r.engine.After(r.memLat, func(sim.Cycle) {
			r.Send(Msg{Type: MemAck, Addr: m.Addr, From: m.To, To: m.From, HasData: true})
		})
	case MemWrite:
		// absorbed
	case MemAck, ReqSh, ReqEx, ReqUpg, WriteBack, InvAck, DwgAck, SyncReq:
		r.dir.Handle(m, now)
		// Elided-ack invalidations: the delivery confirmation doubles as
		// the ack two cycles later.
	case Inv:
		r.l1s[m.To].Handle(m, now)
		if m.Value && r.elide {
			r.engine.After(2, func(at sim.Cycle) { r.dir.OnInvConfirm(m.Addr, at) })
		}
	default:
		r.l1s[m.To].Handle(m, now)
	}
}

func (r *rig) ConfirmationElision() bool { return r.elide }
func (r *rig) BooleanSubscription() bool { return r.boolean }
func (r *rig) SendBit(src, dst int, tag uint64, value bool) {
	r.bits = append(r.bits, bitEvent{src, dst, tag, value})
}

func newRig(t *testing.T, nodes int) *rig {
	r := &rig{
		t:        t,
		engine:   sim.NewEngine(),
		memLat:   20,
		inFlight: make(map[[3]uint64]bool),
		queued:   make(map[[3]uint64][]Msg),
	}
	rng := sim.NewRNG(1)
	home := func(cache.LineAddr) int { return 0 }
	for i := 0; i < nodes; i++ {
		l1 := NewL1(i, PaperL1(), r.engine, rng, r, home)
		r.l1s = append(r.l1s, l1)
		r.engine.Register(l1)
	}
	r.dir = NewDirectory(0, PaperDir(), r.engine, r, func(int) int { return 0 })
	r.engine.Register(r.dir)
	return r
}

// run advances until quiescent or the limit.
func (r *rig) run(limit sim.Cycle) {
	start := r.engine.Now()
	for r.engine.Now()-start < limit {
		r.engine.Step()
		if r.engine.Pending() == 0 {
			// One extra step lets tickers drain outboxes.
			r.engine.Step()
			if r.engine.Pending() == 0 {
				return
			}
		}
	}
}

// access performs a blocking access and returns whether it completed.
func (r *rig) access(node int, addr cache.LineAddr, write bool) bool {
	done := false
	r.l1s[node].AccessRetry(addr, write, func(sim.Cycle) { done = true })
	r.run(5000)
	return done
}

const line cache.LineAddr = 0x42

func TestReadMissFillsExclusive(t *testing.T) {
	r := newRig(t, 2)
	if !r.access(1, line, false) {
		t.Fatal("read never completed")
	}
	if st := r.l1s[1].HasLine(line); st != cache.Exclusive {
		t.Fatalf("state = %v, want E (DV grants exclusive)", st)
	}
	if got := r.dir.EntryState(line); got != "DM" {
		t.Fatalf("dir state = %s, want DM", got)
	}
	if _, owner := r.dir.Sharers(line); owner != 1 {
		t.Fatalf("owner = %d, want 1", owner)
	}
}

func TestWriteMissFillsModified(t *testing.T) {
	r := newRig(t, 2)
	if !r.access(1, line, true) {
		t.Fatal("write never completed")
	}
	if st := r.l1s[1].HasLine(line); st != cache.Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestSilentEtoMUpgrade(t *testing.T) {
	r := newRig(t, 2)
	r.access(1, line, false)
	msgsBefore := len(r.sent)
	if !r.access(1, line, true) {
		t.Fatal("write hit never completed")
	}
	if len(r.sent) != msgsBefore {
		t.Fatal("E->M upgrade must be silent")
	}
	if st := r.l1s[1].HasLine(line); st != cache.Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestReadDowngradesOwner(t *testing.T) {
	r := newRig(t, 3)
	r.access(1, line, true) // node 1 owns M
	if !r.access(2, line, false) {
		t.Fatal("second read never completed")
	}
	if st := r.l1s[1].HasLine(line); st != cache.Shared {
		t.Fatalf("old owner state = %v, want S after Dwg", st)
	}
	if st := r.l1s[2].HasLine(line); st != cache.Shared {
		t.Fatalf("reader state = %v, want S", st)
	}
	if got := r.dir.EntryState(line); got != "DS" {
		t.Fatalf("dir state = %s, want DS", got)
	}
	sharers, _ := r.dir.Sharers(line)
	if sharers != 0b110 {
		t.Fatalf("sharers = %b, want nodes 1 and 2", sharers)
	}
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	r := newRig(t, 3)
	r.access(1, line, true)
	r.access(2, line, false) // both S now
	if !r.access(2, line, true) {
		t.Fatal("upgrade never completed")
	}
	if st := r.l1s[2].HasLine(line); st != cache.Modified {
		t.Fatalf("upgrader state = %v, want M", st)
	}
	if st := r.l1s[1].HasLine(line); st != cache.Invalid {
		t.Fatalf("old sharer state = %v, want I", st)
	}
	if _, owner := r.dir.Sharers(line); owner != 2 {
		t.Fatalf("owner = %d, want 2", owner)
	}
	// The upgrade path must grant via ExcAck, not a data reply.
	sawExcAck := false
	for _, m := range r.sent {
		if m.Type == ExcAck && m.To == 2 {
			sawExcAck = true
		}
	}
	if !sawExcAck {
		t.Fatal("upgrade should complete with ExcAck")
	}
}

func TestExclusiveRequestForwardsDirtyData(t *testing.T) {
	r := newRig(t, 3)
	r.access(1, line, true) // node 1 M (dirty)
	if !r.access(2, line, true) {
		t.Fatal("second write never completed")
	}
	if st := r.l1s[1].HasLine(line); st != cache.Invalid {
		t.Fatalf("old owner = %v, want I", st)
	}
	if st := r.l1s[2].HasLine(line); st != cache.Modified {
		t.Fatalf("new owner = %v, want M", st)
	}
	// Node 1's InvAck must have carried the dirty line.
	sawDirtyAck := false
	for _, m := range r.sent {
		if m.Type == InvAck && m.From == 1 && m.HasData {
			sawDirtyAck = true
		}
	}
	if !sawDirtyAck {
		t.Fatal("M owner must return data with its InvAck")
	}
}

func TestSharedReadsServedFromL2(t *testing.T) {
	r := newRig(t, 4)
	r.access(1, line, true)
	r.access(2, line, false)
	memReads := r.dir.Stats().MemReads
	r.access(3, line, false)
	if r.dir.Stats().MemReads != memReads {
		t.Fatal("a DS read must be served from the L2 slice, not memory")
	}
	sharers, _ := r.dir.Sharers(line)
	if sharers != 0b1110 {
		t.Fatalf("sharers = %b", sharers)
	}
}

func TestMEvictionWritesBack(t *testing.T) {
	r := newRig(t, 2)
	r.access(1, line, true)
	// Fill node 1's set until the victim line is evicted: same set =
	// addr + k*nsets (64 sets, 2 ways).
	r.access(1, line+64, false)
	r.access(1, line+128, false)
	r.run(2000)
	sawWB := false
	for _, m := range r.sent {
		if m.Type == WriteBack && m.From == 1 && m.Addr == line && m.HasData {
			sawWB = true
		}
	}
	if !sawWB {
		t.Fatal("evicting an M line must write back data")
	}
	if got := r.dir.EntryState(line); got != "DV" {
		t.Fatalf("dir state = %s, want DV after writeback", got)
	}
}

func TestEEvictionAnnouncesClean(t *testing.T) {
	r := newRig(t, 2)
	r.access(1, line, false) // E
	r.access(1, line+64, false)
	r.access(1, line+128, false)
	r.run(2000)
	for _, m := range r.sent {
		if m.Type == WriteBack && m.Addr == line {
			if m.HasData {
				t.Fatal("clean E eviction should not carry data")
			}
			return
		}
	}
	t.Fatal("E eviction must announce a clean writeback")
}

func TestWritebackThenRerequest(t *testing.T) {
	// The owner's re-request crossing its own writeback: the directory
	// stalls it until the writeback lands, then serves from L2.
	r := newRig(t, 2)
	r.access(1, line, true)
	r.access(1, line+64, false)
	r.access(1, line+128, false) // evicts line, WriteBack in flight
	if !r.access(1, line, false) {
		t.Fatal("re-request after writeback never completed")
	}
	if st := r.l1s[1].HasLine(line); st != cache.Exclusive {
		t.Fatalf("state = %v, want E (DV grants exclusive)", st)
	}
}

func TestDataVRereadAfterAllEvict(t *testing.T) {
	r := newRig(t, 3)
	r.access(1, line, true)
	r.access(1, line+64, false)
	r.access(1, line+128, false) // line now DV in L2
	r.run(2000)
	memReads := r.dir.Stats().MemReads
	if !r.access(2, line, false) {
		t.Fatal("read of DV line failed")
	}
	if r.dir.Stats().MemReads != memReads {
		t.Fatal("DV read must hit the L2 slice")
	}
}

func TestMergedWaitersOnOneMiss(t *testing.T) {
	r := newRig(t, 2)
	doneA, doneB := false, false
	r.l1s[1].AccessRetry(line, false, func(sim.Cycle) { doneA = true })
	r.l1s[1].AccessRetry(line, false, func(sim.Cycle) { doneB = true })
	r.run(5000)
	if !doneA || !doneB {
		t.Fatal("both merged readers must complete")
	}
	reqs := 0
	for _, m := range r.sent {
		if m.Type == ReqSh {
			reqs++
		}
	}
	if reqs != 1 {
		t.Fatalf("merged misses should issue one request, got %d", reqs)
	}
}

// TestNinthOutstandingMissIsRefusedAndRetried: the transaction table is the
// miss-status file. With cfg.MSHRs distinct lines mid-transaction a miss
// on another line is refused outright (nothing counted, nothing sent) and
// AccessRetry gets it in once a transaction completes, while an access to
// a line already outstanding merges into its transaction however full the
// file is.
func TestNinthOutstandingMissIsRefusedAndRetried(t *testing.T) {
	r := newRig(t, 2)
	r.memLat = 300
	l := r.l1s[1]
	mshrs := l.cfg.MSHRs
	completed := 0
	done := func(sim.Cycle) { completed++ }
	for i := 0; i < mshrs; i++ {
		if !l.Access(line+cache.LineAddr(i), false, done) {
			t.Fatalf("miss %d of %d refused", i+1, mshrs)
		}
	}
	if l.Outstanding() != mshrs {
		t.Fatalf("%d transactions outstanding, want %d", l.Outstanding(), mshrs)
	}
	if !l.Access(line+3, true, done) {
		t.Fatal("an access to an outstanding line must merge, not be refused")
	}
	if got := len(l.pending(line + 3).waiters); got != 2 || l.Outstanding() != mshrs {
		t.Fatalf("after the merge: %d waiters on the line, %d transactions; want 2 and %d", got, l.Outstanding(), mshrs)
	}
	ninth := line + cache.LineAddr(mshrs)
	sent := len(r.sent)
	if l.Access(ninth, false, done) {
		t.Fatalf("miss %d accepted with %d transactions outstanding", mshrs+1, mshrs)
	}
	if l.Outstanding() != mshrs || l.pending(ninth) != nil || int(l.stats.Misses) != mshrs || len(r.sent) != sent {
		t.Fatalf("the refused miss left a trace: %d transactions, %d misses counted, %d messages sent", l.Outstanding(), l.stats.Misses, len(r.sent)-sent)
	}
	l.AccessRetry(ninth, false, done)
	r.run(300)
	if l.pending(ninth) != nil || completed != 0 {
		t.Fatalf("cycle %d: the retried miss got in (%v) with none of the first %d complete (%d)", r.engine.Now(), l.pending(ninth) != nil, mshrs, completed)
	}
	r.run(20000)
	if completed != mshrs+2 || l.Outstanding() != 0 {
		t.Fatalf("%d of %d accesses completed, %d transactions left", completed, mshrs+2, l.Outstanding())
	}
	if st := l.HasLine(ninth); st != cache.Exclusive {
		t.Fatalf("the retried miss left its line %v, want E", st)
	}
	// The merged write rode its line's exclusive fill: no miss of its own.
	if st := l.HasLine(line + 3); st != cache.Modified || int(l.stats.Misses) != mshrs+1 {
		t.Fatalf("merged write left its line %v with %d misses counted, want M and %d", st, l.stats.Misses, mshrs+1)
	}
}

// TestPendingRecordsRecycle: a completed transaction's record, waiters
// capacity included, serves the controller's next miss, and while it
// waits on the free list it pins no waiter's callback.
func TestPendingRecordsRecycle(t *testing.T) {
	r := newRig(t, 2)
	l := r.l1s[1]
	completed := 0
	done := func(sim.Cycle) { completed++ }
	l.AccessRetry(line, false, done)
	l.AccessRetry(line, false, done) // merges: two waiters on one record
	first := l.pending(line)
	r.run(5000)
	l.AccessRetry(line+1, true, done)
	if l.pending(line+1) != first {
		t.Fatal("the second miss did not take the first one's record")
	}
	if first.state != tIMD || len(first.waiters) != 1 || !first.waiters[0].write {
		t.Fatalf("reused record = %+v, want one write waiter in I.MD", *first)
	}
	r.run(5000)
	if completed != 3 {
		t.Fatalf("%d of 3 accesses completed", completed)
	}
	if len(l.free) != 1 || l.free[0] != first || len(first.waiters) != 0 || cap(first.waiters) < 2 {
		t.Fatalf("free list %v, record %+v: want the one record back with its two-waiter capacity", l.free, *first)
	}
	for i, w := range first.waiters[:cap(first.waiters)] {
		if w.done != nil {
			t.Fatalf("released record still pins waiter %d's callback", i)
		}
	}
}

func TestWriteWaiterUpgradesAfterSharedFill(t *testing.T) {
	// A write merging behind a read miss must upgrade once the shared
	// fill lands.
	r := newRig(t, 4)
	r.access(1, line, true)
	r.access(2, line, false) // line DS, shared by 1 and 2... now from node 3:
	doneRead, doneWrite := false, false
	r.l1s[3].AccessRetry(line, false, func(sim.Cycle) { doneRead = true })
	r.l1s[3].AccessRetry(line, true, func(sim.Cycle) { doneWrite = true })
	r.run(8000)
	if !doneRead || !doneWrite {
		t.Fatalf("read=%v write=%v; both must complete", doneRead, doneWrite)
	}
	if st := r.l1s[3].HasLine(line); st != cache.Modified {
		t.Fatalf("final state = %v, want M", st)
	}
}

func TestAckElisionSkipsSharerAcks(t *testing.T) {
	r := newRig(t, 4)
	r.elide = true
	r.access(1, line, true)
	r.access(2, line, false)
	r.access(3, line, false) // DS with sharers 1,2,3
	if !r.access(1, line, true) {
		t.Fatal("upgrade with elided acks never completed")
	}
	elided := r.l1s[2].Stats().ElidedAcks + r.l1s[3].Stats().ElidedAcks
	if elided == 0 {
		t.Fatal("sharer invalidation acks should be elided")
	}
	for _, m := range r.sent {
		if m.Type == InvAck && !m.HasData {
			t.Fatalf("clean InvAck packet sent despite elision: %+v", m)
		}
	}
}

func TestOwnerAlwaysSendsRealInvAck(t *testing.T) {
	r := newRig(t, 3)
	r.elide = true
	r.access(1, line, true) // node 1 owns M
	if !r.access(2, line, true) {
		t.Fatal("exclusive transfer never completed")
	}
	saw := false
	for _, m := range r.sent {
		if m.Type == InvAck && m.From == 1 && m.HasData {
			saw = true
		}
	}
	if !saw {
		t.Fatal("the M owner must send a real data-carrying InvAck even with elision on")
	}
}

func TestNackOnOverloadedLine(t *testing.T) {
	r := newRig(t, 2)
	cfg := PaperDir()
	cfg.QueueEntries = 0 // every stall becomes a NACK
	r.dir = NewDirectory(0, cfg, r.engine, r, func(int) int { return 0 })
	r.engine.Register(r.dir)
	r.memLat = 200 // keep the line in a transient a long time
	doneA, doneB := false, false
	r.l1s[0].AccessRetry(line, false, func(sim.Cycle) { doneA = true })
	r.engine.Run(5)
	r.l1s[1].AccessRetry(line, false, func(sim.Cycle) { doneB = true })
	r.run(20000)
	if !doneA || !doneB {
		t.Fatalf("doneA=%v doneB=%v; NACK retry must eventually succeed", doneA, doneB)
	}
	if r.l1s[1].Stats().Nacks == 0 {
		t.Fatal("the second requester should have been NACKed at least once")
	}
}

func TestL2CapacityEviction(t *testing.T) {
	r := newRig(t, 2)
	cfg := PaperDir()
	cfg.SliceLines = 4
	r.dir = NewDirectory(0, cfg, r.engine, r, func(int) int { return 0 })
	r.engine.Register(r.dir)
	// Touch 8 distinct lines in different L1 sets; the slice must evict.
	for i := 0; i < 8; i++ {
		if !r.access(1, cache.LineAddr(0x100+i), false) {
			t.Fatalf("access %d never completed", i)
		}
	}
	if r.dir.Stats().Evictions == 0 {
		t.Fatal("the 4-line slice must have evicted")
	}
	// An evicted owned line must have been recalled from its L1.
	if r.l1s[1].Stats().Invalidations == 0 {
		t.Fatal("evicting owned lines must invalidate the owner")
	}
}

func TestUpgradeRaceReinterpretedAsExclusive(t *testing.T) {
	// Two sharers upgrade simultaneously; the loser's Upg must be
	// treated as Req(Ex) and still complete with data.
	r := newRig(t, 3)
	r.access(1, line, true)
	r.access(2, line, false) // DS: {1, 2}
	done1, done2 := false, false
	r.l1s[1].AccessRetry(line, true, func(sim.Cycle) { done1 = true })
	r.l1s[2].AccessRetry(line, true, func(sim.Cycle) { done2 = true })
	r.run(10000)
	if !done1 || !done2 {
		t.Fatalf("done1=%v done2=%v; both racing upgrades must finish", done1, done2)
	}
	// Exactly one node ends as owner in M.
	m1 := r.l1s[1].HasLine(line) == cache.Modified
	m2 := r.l1s[2].HasLine(line) == cache.Modified
	if m1 == m2 {
		t.Fatalf("exactly one owner expected: node1=%v node2=%v", m1, m2)
	}
}

func TestConcurrentMixedTrafficInvariant(t *testing.T) {
	// Stress: random reads/writes from 4 nodes over a small line pool;
	// afterwards every line has at most one owner and the directory
	// agrees with the L1 states.
	r := newRig(t, 4)
	rng := sim.NewRNG(99)
	pending := 0
	for i := 0; i < 400; i++ {
		node := rng.Intn(4)
		addr := cache.LineAddr(0x200 + rng.Intn(8))
		write := rng.Bool(0.4)
		pending++
		r.l1s[node].AccessRetry(addr, write, func(sim.Cycle) { pending-- })
		if i%7 == 0 {
			r.run(300)
		}
	}
	r.run(60000)
	if pending != 0 {
		t.Fatalf("%d accesses never completed", pending)
	}
	for a := 0; a < 8; a++ {
		addr := cache.LineAddr(0x200 + a)
		owners, sharers := 0, 0
		for n := 0; n < 4; n++ {
			switch r.l1s[n].HasLine(addr) {
			case cache.Modified, cache.Exclusive:
				owners++
			case cache.Shared:
				sharers++
			}
		}
		if owners > 1 {
			t.Fatalf("line %#x has %d owners", uint64(addr), owners)
		}
		if owners == 1 && sharers > 0 {
			t.Fatalf("line %#x has an owner and %d sharers", uint64(addr), sharers)
		}
	}
}

func TestSyncManagerLockProtocol(t *testing.T) {
	r := newRig(t, 3)
	r.boolean = true
	d := r.dir
	d.Handle(Msg{Type: SyncReq, Op: SyncAcquire, SyncID: 5, From: 1, To: 0}, 0)
	if len(r.bits) != 1 || !r.bits[0].value {
		t.Fatalf("first acquire must win: %+v", r.bits)
	}
	d.Handle(Msg{Type: SyncReq, Op: SyncAcquire, SyncID: 5, From: 2, To: 0}, 1)
	if len(r.bits) != 2 || r.bits[1].value {
		t.Fatal("second acquire must fail")
	}
	d.Handle(Msg{Type: SyncReq, Op: SyncRelease, SyncID: 5, From: 1, To: 0}, 2)
	if len(r.bits) != 3 || r.bits[2].dst != 2 {
		t.Fatalf("release must push to the subscriber: %+v", r.bits)
	}
	if d.LockHeld(5) {
		t.Fatal("lock must be free after release")
	}
	d.Handle(Msg{Type: SyncReq, Op: SyncAcquire, SyncID: 5, From: 2, To: 0}, 3)
	if !r.bits[3].value {
		t.Fatal("re-acquire after release must win")
	}
}

func TestSyncManagerBarrier(t *testing.T) {
	r := newRig(t, 3)
	r.boolean = true
	d := r.dir
	d.SetBarrierTarget(0, 3)
	d.Handle(Msg{Type: SyncReq, Op: SyncArrive, SyncID: 0, From: 0, To: 0}, 0)
	d.Handle(Msg{Type: SyncReq, Op: SyncArrive, SyncID: 0, From: 1, To: 0}, 1)
	if len(r.bits) != 2 {
		t.Fatalf("early arrivers get wait replies: %+v", r.bits)
	}
	d.Handle(Msg{Type: SyncReq, Op: SyncArrive, SyncID: 0, From: 2, To: 0}, 2)
	// Release pushes to all three arrivers.
	releases := 0
	for _, b := range r.bits[2:] {
		if b.value {
			releases++
		}
	}
	if releases != 3 {
		t.Fatalf("barrier release must push to all 3, got %d (%+v)", releases, r.bits)
	}
}

func TestTransientStateNames(t *testing.T) {
	names := map[dirState]string{
		tDIDSD: "DI.DSD", tDIDMD: "DI.DMD", tDSDIA: "DS.DIA",
		tDSDMDA: "DS.DMDA", tDSDMA: "DS.DMA", tDMDSD: "DM.DSD",
		tDMDMD: "DM.DMD", tDMDID: "DM.DID", tDMDSA: "DM.DSA", tDMDMA: "DM.DMA",
	}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%d.String() = %s, want %s", st, st.String(), want)
		}
		if st.stable() {
			t.Errorf("%s should not be stable", want)
		}
	}
	for _, st := range []dirState{sDI, sDV, sDS, sDM} {
		if !st.stable() {
			t.Errorf("%s should be stable", st)
		}
	}
}

func TestBackpressureOutboxDrains(t *testing.T) {
	r := newRig(t, 2)
	r.blockNet = true
	r.l1s[1].AccessRetry(line, false, func(sim.Cycle) {})
	r.engine.Run(10)
	r.blockNet = false
	done := false
	r.l1s[1].OnInvalidate(line, func(sim.Cycle) {})
	r.run(5000)
	// The request held in the outbox must go out once the fabric opens.
	for _, m := range r.sent {
		if m.Type == ReqSh {
			done = true
		}
	}
	if !done {
		t.Fatal("outbox never drained after backpressure lifted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt, want := range msgNames {
		if mt.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(mt), mt.String(), want)
		}
	}
	if MsgType(99).String() == "" {
		t.Error("unknown types need a fallback")
	}
}

func TestTagRoundTrip(t *testing.T) {
	for id := 0; id < 100; id += 7 {
		for _, barrier := range []bool{false, true} {
			for _, update := range []bool{false, true} {
				var tag uint64
				if barrier {
					tag = BarrierTag(id, update)
				} else {
					tag = LockTag(id, update)
				}
				gid, gb, gu := DecodeTag(tag)
				if gid != id || gb != barrier || gu != update {
					t.Fatalf("tag round trip failed: id=%d b=%v u=%v -> %d %v %v",
						id, barrier, update, gid, gb, gu)
				}
			}
		}
	}
}

// TestLazyTablesFirstUse: a new controller has no spin-watch table and a
// new directory no lock or barrier table. An invalidation nobody watches
// reads the nil watch table; the first registration, lock and barrier
// each make theirs.
func TestLazyTablesFirstUse(t *testing.T) {
	r := newRig(t, 3)
	r.boolean = true
	l1, sm := r.l1s[1], r.dir.sync
	if l1.watch != nil || sm.locks != nil || sm.barriers != nil {
		t.Fatal("a new controller or directory starts with a table made")
	}

	// An invalidation with no watch registered reads the nil table.
	if !r.access(1, line, false) || !r.access(2, line, true) {
		t.Fatal("accesses did not complete")
	}
	if l1.Stats().Invalidations != 1 || l1.watch != nil {
		t.Fatalf("unwatched invalidation: %d invalidations, watch table %v", l1.Stats().Invalidations, l1.watch)
	}
	fired := 0
	if !r.access(1, line, false) {
		t.Fatal("re-read did not complete")
	}
	l1.OnInvalidate(line, func(sim.Cycle) { fired++ })
	if !r.access(2, line, true) {
		t.Fatal("second write did not complete")
	}
	if fired != 1 || len(l1.watch) != 0 {
		t.Fatalf("first watch fired %d times, %d lines still watched", fired, len(l1.watch))
	}

	// LockHeld makes the lock it asks about, so it too writes the table.
	if r.dir.LockHeld(9) {
		t.Fatal("an unknown lock reads as held")
	}
	r.dir.Handle(Msg{Type: SyncReq, Op: SyncAcquire, SyncID: 5, From: 1, To: 0}, 0)
	if len(sm.locks) != 2 || !r.dir.LockHeld(5) || !r.bits[0].value {
		t.Fatalf("first acquire: %d locks, held %v, replies %+v", len(sm.locks), r.dir.LockHeld(5), r.bits)
	}
	if sm.barriers != nil {
		t.Fatal("a lock made the barrier table")
	}
	r.dir.Handle(Msg{Type: SyncReq, Op: SyncArrive, SyncID: 0, From: 2, To: 0}, 1)
	if len(sm.barriers) != 1 || len(r.bits) != 2 || r.bits[1].dst != 2 || !r.bits[1].value {
		t.Fatalf("first arrival at a barrier of target 1 must release it: %d barriers, replies %+v", len(sm.barriers), r.bits)
	}
}
