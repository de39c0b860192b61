package mesh

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// BenchmarkMeshIdleTick prices a cycle of an 8x8 mesh that carries no
// traffic, per router: what every mesh run pays for the routers a
// packet is not in.
func BenchmarkMeshIdleTick(b *testing.B) {
	engine := sim.NewEngine()
	n := New(PaperMesh(8), engine)
	engine.Register(sim.TickFunc(n.Tick))
	b.ReportAllocs()
	b.ResetTimer()
	engine.Run(sim.Cycle(b.N))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n.NumNodes()), "ns/router-cycle")
}

// BenchmarkMeshLoaded drives uniform random traffic (60% meta, 40% data,
// four packets every fourth cycle) through an 8x8 mesh until all of it
// is delivered; one iteration is one packet.
func BenchmarkMeshLoaded(b *testing.B) {
	engine := sim.NewEngine()
	n := New(PaperMesh(8), engine)
	engine.Register(sim.TickFunc(n.Tick))
	delivered := 0
	n.SetDelivery(func(*noc.Packet, sim.Cycle) { delivered++ })
	rng := sim.NewRNG(1)
	pkts := make([]noc.Packet, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < len(pkts); engine.Run(4) {
		for i := 0; i < 4 && sent < len(pkts); i++ {
			p := &pkts[sent]
			p.Src, p.Dst, p.Type = rng.Intn(64), rng.Intn(64), noc.Meta
			if rng.Bool(0.4) {
				p.Type = noc.Data
			}
			if n.Send(p) {
				sent++
			}
		}
	}
	for delivered < len(pkts) {
		engine.Run(16)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/packet")
}
