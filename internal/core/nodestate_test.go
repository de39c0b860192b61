package core

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// live counts the reservations at or after slot cur: the only ones a lookup
// at or after cur can still read.
func (w *slotWindow) live(cur int64) int {
	n := 0
	for _, s := range w.slots {
		if s >= cur {
			n++
		}
	}
	return n
}

// refReservations is the reservation table as it was before slotWindow: a
// map from slot to a count, and for every reservation an expiry at the
// start of cycle (slot+2)*dataSlot that takes the count back down. It also
// polices the argument slotWindow rests on: no lookup may read a slot whose
// expiry is due, whether or not the expiry has run yet.
type refReservations struct {
	t        *testing.T
	dataSlot int64
	reserved map[int64]int
	expiries map[sim.Cycle][]int64 // cycle -> slots whose count drops then
	now      sim.Cycle
}

func (r *refReservations) lookup(slot int64) bool {
	if sim.Cycle((slot+2)*r.dataSlot) <= r.now {
		r.t.Fatalf("cycle %d: lookup of slot %d, whose reservations expire at cycle %d", r.now, slot, (slot+2)*r.dataSlot)
	}
	return r.reserved[slot] > 0
}

// advance runs the expiries due up to and including cycle to.
func (r *refReservations) advance(to sim.Cycle) {
	for c, slots := range r.expiries {
		if c > to {
			continue
		}
		for _, s := range slots {
			if r.reserved[s]--; r.reserved[s] == 0 {
				delete(r.reserved, s)
			}
		}
		delete(r.expiries, c)
	}
	r.now = to
}

func (r *refReservations) reserve(first int64) int64 {
	slot := first
	for i := 0; r.lookup(slot) && i < 4; i++ {
		slot++
	}
	r.reserved[slot]++
	end := sim.Cycle((slot + 2) * r.dataSlot)
	r.expiries[end] = append(r.expiries[end], slot)
	return slot
}

// TestReservationsMatchMapWithExpiry plays random scripts of reply-slot
// reservations (aimed replyEWMA cycles ahead, EWMAs from 0 to 5000) and
// writeback grants (aimed ConfirmDelay ahead) against slotWindow and
// against the map-with-expiry model: the same slot must be chosen every
// time, so the same hold. Expiry events ran at the start of their cycle,
// before anything else that cycle could look; the test runs them both
// before and after the cycle's lookups, since the claim is that nobody can
// tell.
func TestReservationsMatchMapWithExpiry(t *testing.T) {
	const dataSlot, cd = 5, 2
	for _, expireFirst := range []bool{true, false} {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := sim.NewRNG(seed)
			ref := &refReservations{t: t, dataSlot: dataSlot, reserved: map[int64]int{}, expiries: map[sim.Cycle][]int64{}}
			var win slotWindow
			// Each script stays in one EWMA regime for a while, as a run
			// does, and visits both ends of the range.
			ewma := float64(rng.Intn(5001))
			maxLive := 0
			now := sim.Cycle(0)
			for step := 0; step < 4000; step++ {
				now += sim.Cycle(rng.Intn(4)) // bursts within a cycle, and gaps
				if rng.Intn(400) == 0 {
					now += sim.Cycle(rng.Intn(20000)) // idle stretch: everything dies
				}
				if rng.Intn(50) == 0 {
					ewma = float64(rng.Intn(5001))
				}
				if rng.Intn(8) == 0 {
					ewma = 0.875*ewma + 0.125*float64(rng.Intn(5001))
				}
				if expireFirst {
					ref.advance(now)
				} else {
					ref.advance(now - 1)
					ref.now = now
				}
				first := (int64(now) + int64(ewma)) / dataSlot
				if rng.Intn(3) == 0 {
					first = int64(now+cd)/dataSlot + 1 // a writeback grant
				}
				want := ref.reserve(first)
				got := win.reserve(first, int64(now)/dataSlot)
				if got != want {
					t.Fatalf("seed %d step %d cycle %d: first slot %d: window chose %d, map chose %d", seed, step, now, first, got, want)
				}
				if !win.has(got) {
					t.Fatalf("seed %d step %d: slot %d not reserved right after reserve returned it", seed, step, got)
				}
				// Whatever a later lookup could still read must agree.
				cur := int64(now) / dataSlot
				for s := cur; s < cur+8; s++ {
					if win.has(s) != (ref.reserved[s] > 0) {
						t.Fatalf("seed %d step %d cycle %d: slot %d reserved: window %v, map %v", seed, step, now, s, win.has(s), ref.reserved[s] > 0)
					}
				}
				maxLive = max(maxLive, win.live(cur))
			}
			// Only what is live is kept (the dead leave at the next
			// reserve), at most one entry per slot.
			if len(win.slots) > maxLive+1 || maxLive > 5000/dataSlot+8 {
				t.Fatalf("seed %d: %d entries held, at most %d ever live", seed, len(win.slots), maxLive)
			}
		}
	}
}

// TestSlotWindowKeepsOnlyTheLive: a node that reserves nothing pays nothing,
// a slot is held once however many packets share it, and a reservation
// whose slot has begun is gone after the next reserve.
func TestSlotWindowKeepsOnlyTheLive(t *testing.T) {
	var win slotWindow
	if win.has(0) || win.has(12345) || win.live(0) != 0 || win.slots != nil {
		t.Fatal("the zero slotWindow is not empty")
	}
	for i, want := range []int64{40, 41, 42, 43, 44, 44} { // the fifth try is taken whatever its state
		if s := win.reserve(40, 7); s != want {
			t.Fatalf("reservation %d aimed at slot 40 got %d, want %d", i, s, want)
		}
	}
	if len(win.slots) != 5 || win.live(7) != 5 || win.live(42) != 3 {
		t.Fatalf("after six reservations over five slots: %v", win.slots)
	}
	if s := win.reserve(50, 43); s != 50 || len(win.slots) != 3 || win.has(42) || !win.has(43) {
		t.Fatalf("reserve at slot 43 kept the dead: got slot %d, holding %v", s, win.slots)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a reservation aimed before the current slot must panic")
		}
	}()
	win.reserve(42, 43)
}

// TestReplyLogMatchesMapOfSlices drives replyLog and the map of re-sliced
// slices it replaced with one random script, NACKed requests (pushed, never
// popped) included.
func TestReplyLogMatchesMapOfSlices(t *testing.T) {
	rng := sim.NewRNG(5)
	var log replyLog
	ref := map[int][]sim.Cycle{}
	for step := 0; step < 20000; step++ {
		node := rng.Intn(40)
		if rng.Intn(9) < 5 {
			log.push(node, sim.Cycle(step))
			ref[node] = append(ref[node], sim.Cycle(step))
			continue
		}
		got, ok := log.pop(node)
		pend := ref[node]
		if ok != (len(pend) > 0) || (ok && got != pend[0]) {
			t.Fatalf("step %d: pop(%d) = %d, %v; the map's list is %v", step, node, got, ok, pend)
		}
		if ok {
			ref[node] = pend[1:]
		}
	}
	live := 0
	for _, pend := range ref {
		live += len(pend)
	}
	// Cells are recycled: the slice holds the high-water mark of what was
	// live at once, not one cell per push.
	if len(log.cells) > 4*live+64 {
		t.Fatalf("%d cells for %d live entries: popped cells are not being reused", len(log.cells), live)
	}
}

// TestGrantFindsQueuedWriteback: a split writeback waits in its sender's
// data queue from Send until the granted slot, the grant finds it there and
// gives it the slot's opening cycle, and the record the two legs rode on is
// back on the sender's free list exactly once. A grant for a packet that is
// no longer queued is a protocol bug, not a hold to be filed for whatever
// packet reuses the record: it panics.
func TestGrantFindsQueuedWriteback(t *testing.T) {
	cfg := PaperConfig(16)
	cfg.Opt = Optimizations{WritebackSplit: true}
	engine := sim.NewEngine()
	n := New(cfg, engine, sim.NewRNG(1))
	n.SetBitErrorRate(0)
	var deliveredAt sim.Cycle
	n.SetDelivery(func(_ *noc.Packet, now sim.Cycle) { deliveredAt = now })
	engine.Register(sim.TickFunc(n.Tick))
	cd := sim.Cycle(cfg.ConfirmDelay)
	dataSlot := sim.Cycle(cfg.SlotCycles(LaneData))

	engine.Run(3) // send mid-slot, so the hold is not a slot boundary by luck
	src, home := 1, 9
	wb := &noc.Packet{ID: 1, Src: src, Dst: home, Type: noc.Data, IsWriteback: true}
	sent := engine.Now()
	if !n.Send(wb) {
		t.Fatal("writeback send rejected")
	}
	ns := n.nodes[src]
	entry := func() queued {
		t.Helper()
		if q := ns.queue[LaneData]; len(q) != 1 || q[0].pkt != wb {
			t.Fatalf("cycle %d: data queue %+v, want the writeback alone", engine.Now(), q)
		}
		return ns.queue[LaneData][0]
	}
	if q := entry(); !q.held || q.notBefore != sent+2*cd {
		t.Fatalf("provisional hold %+v, want held until cycle %d", q, sent+2*cd)
	}
	// The grant is the first event of cycle sent+2cd; step up to and
	// through it.
	engine.Run(2*cd + 1)
	granted := (int64(sent+2*cd)/int64(dataSlot) + 1) * int64(dataSlot)
	if q := entry(); !q.held || int64(q.notBefore) != granted {
		t.Fatalf("after the grant the hold is %+v, want held until cycle %d", q, granted)
	}
	if len(ns.wbFree) != 1 || ns.wbFree[0].pkt != nil || ns.wbFree[0].grantFn == nil || len(n.nodes[home].wbFree) != 0 {
		t.Fatalf("split record not released once, scrubbed, to its sender: %+v", ns.wbFree)
	}
	engine.Run(100)
	if want := sim.Cycle(granted) + dataSlot; deliveredAt != want {
		t.Fatalf("writeback delivered at cycle %d, want %d (the granted slot's end)", deliveredAt, want)
	}
	if wb.SchedulingDelay != granted-int64(sent) {
		t.Fatalf("scheduling delay %d, want %d", wb.SchedulingDelay, granted-int64(sent))
	}

	// The same record carries the next writeback's split.
	rec := ns.wbFree[0]
	wb2 := &noc.Packet{ID: 2, Src: src, Dst: home, Type: noc.Data, IsWriteback: true}
	if !n.Send(wb2) || len(ns.wbFree) != 0 || rec.pkt != wb2 {
		t.Fatal("the second writeback did not reuse the first one's split record")
	}
	// Take the packet out from under its grant.
	ns.queue[LaneData] = ns.queue[LaneData][:0]
	defer func() {
		if recover() == nil {
			t.Fatal("a grant whose packet has left the data queue must panic")
		}
	}()
	engine.Run(2*cd + 1)
}

// liveReservations counts node's reservations for the data slot containing
// the engine's present cycle or a later one: the only ones a lookup can
// still read.
func liveReservations(n *Network, e *sim.Engine, node int) int {
	return n.nodes[node].reserved.live(int64(e.Now()) / n.slotLen[LaneData])
}

// reservationNet is a 16-node network with only the given optimization on,
// no bit errors, and its sweep ticking every cycle.
func reservationNet(opt Optimizations) (*Network, *sim.Engine) {
	cfg := PaperConfig(16)
	cfg.Opt = opt
	e := sim.NewEngine()
	n := New(cfg, e, sim.NewRNG(1))
	n.SetBitErrorRate(0)
	n.SetDelivery(func(*noc.Packet, sim.Cycle) {})
	e.Register(sim.TickFunc(n.Tick))
	return n, e
}

// TestWritebackReservationExpiresAtHomeNode: the §5.2 writeback split
// reserves a data slot in the *home* node's receiver state, made by the
// announcement once it reaches the home node, and the reservation must be
// dead once its slot has passed.
func TestWritebackReservationExpiresAtHomeNode(t *testing.T) {
	n, e := reservationNet(Optimizations{WritebackSplit: true})
	src, home := 1, 9
	if !n.Send(&noc.Packet{Src: src, Dst: home, Type: noc.Data, IsWriteback: true}) {
		t.Fatal("writeback send rejected")
	}
	// The announcement rides to the home node (ConfirmDelay cycles);
	// only then is the reservation made.
	if liveReservations(n, e, home) != 0 {
		t.Fatal("the home node reserved a slot before the announcement arrived")
	}
	e.Run(4)
	if liveReservations(n, e, home) != 1 {
		t.Fatal("writeback announce did not reserve a slot at the home node")
	}
	if liveReservations(n, e, src) != 0 {
		t.Fatal("the writeback reserved a slot at its sender")
	}
	e.Run(5000)
	if live := liveReservations(n, e, home); live != 0 {
		t.Fatalf("home-node reservation still live after its slot: %d in %v", live, n.nodes[home].reserved.slots)
	}
}

// TestReceiverSchedulingReservationExpires covers the sibling path: a
// request with receiver scheduling reserves the reply slot at its own
// node, and that reservation too is dead once its slot has passed.
func TestReceiverSchedulingReservationExpires(t *testing.T) {
	n, e := reservationNet(Optimizations{ReceiverScheduling: true})
	src := 2
	if !n.Send(&noc.Packet{Src: src, Dst: 11, Type: noc.Meta, ExpectsDataReply: true}) {
		t.Fatal("request send rejected")
	}
	if liveReservations(n, e, src) != 1 {
		t.Fatal("receiver scheduling did not reserve the reply slot")
	}
	e.Run(5000)
	if live := liveReservations(n, e, src); live != 0 {
		t.Fatalf("reply-slot reservation still live after its slot: %d in %v", live, n.nodes[src].reserved.slots)
	}
}
