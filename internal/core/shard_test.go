package core

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
	"fsoi/internal/sim/shard"
)

// liveReservations counts node's reservations for the data slot containing
// the engine's present cycle or a later one: the only ones a lookup can
// still read.
func liveReservations(n *Network, e sim.Scheduler, node int) int {
	return n.nodes[node].reserved.live(int64(e.Now()) / n.slotLen[LaneData])
}

// TestWritebackReservationExpiresOnHomeShard: the §5.2 writeback split
// reserves a data slot in the *home* node's receiver state, so the
// announcement that makes the reservation must run on the shard owning the
// home node (a recorded handoff on a sharded engine), and the reservation
// must be dead once its slot has passed.
func TestWritebackReservationExpiresOnHomeShard(t *testing.T) {
	cfg := PaperConfig(16)
	cfg.Opt = Optimizations{WritebackSplit: true}
	e := shard.New(2)
	e.AssignNodes(cfg.Nodes)
	n := New(cfg, e, sim.NewRNG(1))
	e.SetLookahead(n.Lookahead())
	n.SetBitErrorRate(0)
	n.SetDelivery(func(*noc.Packet, sim.Cycle) {})
	e.Register(sim.TickFunc(n.Tick))

	// Src on shard 0, home (Dst) on shard 1: the reservation and its
	// expiry belong to the other shard.
	src, home := 1, 9
	if e.NodeShard(src) == e.NodeShard(home) {
		t.Fatalf("nodes %d and %d landed on the same shard; pick farther apart", src, home)
	}
	before := e.Handoffs()
	if !n.Send(&noc.Packet{Src: src, Dst: home, Type: noc.Data, IsWriteback: true}) {
		t.Fatal("writeback send rejected")
	}
	// The announcement rides to the home node (ConfirmDelay cycles);
	// only then does the home node's own context make the reservation.
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
	if e.Handoffs() == before {
		t.Fatal("no cross-shard handoffs recorded: the announcement is bypassing noc.ScheduleAt")
	}
}

// TestReceiverSchedulingReservationExpires covers the sibling path: a
// request with receiver scheduling reserves the reply slot at its own
// node, and that reservation too is dead once its slot has passed.
func TestReceiverSchedulingReservationExpires(t *testing.T) {
	cfg := PaperConfig(16)
	cfg.Opt = Optimizations{ReceiverScheduling: true}
	e := shard.New(2)
	e.AssignNodes(cfg.Nodes)
	n := New(cfg, e, sim.NewRNG(1))
	e.SetLookahead(n.Lookahead())
	n.SetBitErrorRate(0)
	n.SetDelivery(func(*noc.Packet, sim.Cycle) {})
	e.Register(sim.TickFunc(n.Tick))

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
