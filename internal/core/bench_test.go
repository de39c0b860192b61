package core

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// hotspot is a 64-node network whose sweep sleeps between slot boundaries,
// as system.New registers it, with its confirmations counted.
type hotspot struct {
	engine    *sim.Engine
	n         *Network
	pkts      [32]noc.Packet // caller-owned, reused once confirmed
	confirmed int
}

func newHotspot() *hotspot {
	h := &hotspot{engine: sim.NewEngine()}
	h.n = New(PaperConfig(64), h.engine, sim.NewRNG(1))
	h.n.SetConfirmDelivery(func(*noc.Packet, sim.Cycle) { h.confirmed++ })
	h.n.RegisterSweep()
	return h
}

// run sends count packets in rounds. In a round the 32 odd nodes send one
// packet each to node 0, meta and data alternating by sender, so sixteen
// beams a lane land on node 0's receiver 1 in the same slot and collide
// until their backoff windows spread them out. A round runs until every
// packet of it is confirmed.
func (h *hotspot) run(count int) {
	for sent := 0; sent < count; {
		want := h.confirmed
		for i := range h.pkts {
			if sent == count {
				break
			}
			p := &h.pkts[i]
			*p = noc.Packet{ID: uint64(sent + 1), Src: 2*i + 1, Dst: 0, Type: noc.PacketType(i % 2)}
			if !h.n.Send(p) {
				panic("core: the hotspot's one packet per sender was refused")
			}
			sent++
			want++
		}
		for h.confirmed < want {
			h.engine.Run(64)
		}
	}
}

// BenchmarkHotspotBackoff prices a delivered packet when every packet
// collides first: the sweep's arrival, collision, backoff and retry path.
// One iteration is one packet.
func BenchmarkHotspotBackoff(b *testing.B) {
	h := newHotspot()
	b.ReportAllocs()
	b.ResetTimer()
	h.run(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/packet")
}
