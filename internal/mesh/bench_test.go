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

// runLoad sends pkts through a 64-node net as uniform random traffic
// (60% meta, 40% data, four packets every fourth cycle) and runs engine
// until *delivered has counted them all.
func runLoad(engine *sim.Engine, net noc.Network, rng *sim.RNG, pkts []noc.Packet, delivered *int) {
	want := *delivered + len(pkts)
	for sent := 0; sent < len(pkts); engine.Run(4) {
		for i := 0; i < 4 && sent < len(pkts); i++ {
			p := &pkts[sent]
			*p = noc.Packet{Src: rng.Intn(64), Dst: rng.Intn(64), Type: noc.Meta}
			if rng.Bool(0.4) {
				p.Type = noc.Data
			}
			if net.Send(p) {
				sent++
			}
		}
	}
	for *delivered < want {
		engine.Run(16)
	}
}

// BenchmarkMeshLoaded drives runLoad's traffic through an 8x8 mesh; one
// iteration is one packet.
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
	runLoad(engine, n, rng, pkts, &delivered)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/packet")
}

// TestWarmedNetworksAllocateNothing holds the baselines to what the FSOI
// packet lifecycle already promises: once the VC rings a load uses, the
// delivery records and the engine's slab have grown to that load, a
// packet costs no allocation on the mesh or on L0/Lr.
func TestWarmedNetworksAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*sim.Engine) noc.Network
	}{
		{"mesh", func(e *sim.Engine) noc.Network { return New(PaperMesh(8), e) }},
		{"L0", func(e *sim.Engine) noc.Network { return NewL0(8, e) }},
		{"Lr2", func(e *sim.Engine) noc.Network { return NewLr(8, 2, e) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := sim.NewEngine()
			net := tc.build(engine)
			engine.Register(sim.TickFunc(net.Tick))
			delivered := 0
			net.SetDelivery(func(*noc.Packet, sim.Cycle) { delivered++ })
			rng := sim.NewRNG(1)
			pkts := make([]noc.Packet, 4000)
			runLoad(engine, net, rng, pkts, &delivered)
			if allocs := testing.AllocsPerRun(1, func() { runLoad(engine, net, rng, pkts[:2000], &delivered) }); allocs != 0 {
				t.Fatalf("%v allocations in 2000 packets on a warmed %s, want 0", allocs, tc.name)
			}
		})
	}
}
