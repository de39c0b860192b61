package mesh

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
	"fsoi/internal/sim/shard"
)

// meshTraffic drives an all-to-neighbor burst through a 4x4 mesh on the
// given scheduler and returns the delivered packets in delivery order.
func meshTraffic(t *testing.T, engine sim.Scheduler, run func(sim.Cycle) sim.Cycle, reg func(sim.Ticker)) []*noc.Packet {
	t.Helper()
	n := New(PaperMesh(4), engine)
	var delivered []*noc.Packet
	n.SetDelivery(func(p *noc.Packet, now sim.Cycle) { delivered = append(delivered, p) })
	reg(sim.TickFunc(n.Tick))
	for src := 0; src < 16; src++ {
		for _, dst := range []int{(src + 1) % 16, (src + 5) % 16} {
			typ := noc.Meta
			if src%3 == 0 {
				typ = noc.Data
			}
			if !n.Send(&noc.Packet{Src: src, Dst: dst, Type: typ}) {
				t.Fatalf("send %d->%d rejected", src, dst)
			}
		}
	}
	run(2000)
	return delivered
}

// TestForwardRoutesThroughOwnerShard began as the regression test for a
// forward() that scheduled a flit's arrival on the wrong shard's queue.
// Forward now schedules nothing: a flit crosses a link inside the
// mesh's own tick, so on either engine the mesh must hand the engine no
// flit at all (no event, no cross-shard handoff), and a sharded run
// must still match the serial engine in delivery order and per-packet
// latency.
func TestForwardRoutesThroughOwnerShard(t *testing.T) {
	serialEngine := sim.NewEngine()
	serial := meshTraffic(t, serialEngine, serialEngine.Run, serialEngine.Register)
	if len(serial) != 32 {
		t.Fatalf("serial run delivered %d of 32", len(serial))
	}
	if serialEngine.EventsFired() != 0 || serialEngine.Pending() != 0 {
		t.Fatalf("serial: the mesh scheduled %d events (%d pending), want none",
			serialEngine.EventsFired(), serialEngine.Pending())
	}

	for _, shards := range []int{2, 4} {
		e := shard.New(shards)
		e.AssignNodes(16)
		sharded := meshTraffic(t, e, e.Run, e.Register)
		if e.Handoffs() != 0 || e.EventsFired() != 0 || e.Pending() != 0 {
			t.Fatalf("%d shards: the mesh handed the engine %d handoffs and %d events (%d pending), want none",
				shards, e.Handoffs(), e.EventsFired(), e.Pending())
		}
		if len(sharded) != len(serial) {
			t.Fatalf("%d shards: delivered %d packets, serial delivered %d", shards, len(sharded), len(serial))
		}
		for i := range serial {
			s, p := serial[i], sharded[i]
			if s.Src != p.Src || s.Dst != p.Dst || s.TotalLatency() != p.TotalLatency() {
				t.Fatalf("%d shards: packet %d diverged: serial %d->%d lat %d, sharded %d->%d lat %d",
					shards, i, s.Src, s.Dst, s.TotalLatency(), p.Src, p.Dst, p.TotalLatency())
			}
		}
	}
}
