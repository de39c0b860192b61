package mesh

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

func testMesh(t *testing.T, cfg Config) (*Network, *sim.Engine, *[]*noc.Packet) {
	t.Helper()
	engine := sim.NewEngine()
	n := New(cfg, engine)
	delivered := &[]*noc.Packet{}
	n.SetDelivery(func(p *noc.Packet, now sim.Cycle) { *delivered = append(*delivered, p) })
	engine.Register(sim.TickFunc(n.Tick))
	return n, engine, delivered
}

func TestSingleHopDelivery(t *testing.T) {
	n, engine, delivered := testMesh(t, PaperMesh(4))
	p := &noc.Packet{Src: 0, Dst: 1, Type: noc.Meta}
	if !n.Send(p) {
		t.Fatal("send rejected")
	}
	engine.Run(100)
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	// One intermediate router (4 cycles) + ejection router + links.
	if p.TotalLatency() < 5 || p.TotalLatency() > 20 {
		t.Fatalf("1-hop latency = %d", p.TotalLatency())
	}
}

func TestDiagonalLatencyScalesWithHops(t *testing.T) {
	n, engine, delivered := testMesh(t, PaperMesh(4))
	near := &noc.Packet{Src: 0, Dst: 1, Type: noc.Meta}
	far := &noc.Packet{Src: 5, Dst: 15, Type: noc.Meta}
	n.Send(near)
	n.Send(far)
	engine.Run(200)
	if len(*delivered) != 2 {
		t.Fatal("packets lost")
	}
	if far.TotalLatency() <= near.TotalLatency() {
		t.Fatalf("far %d should exceed near %d", far.TotalLatency(), near.TotalLatency())
	}
}

func TestDataPacketSerialization(t *testing.T) {
	n, engine, delivered := testMesh(t, PaperMesh(4))
	meta := &noc.Packet{Src: 0, Dst: 3, Type: noc.Meta}
	data := &noc.Packet{Src: 12, Dst: 15, Type: noc.Data}
	n.Send(meta)
	n.Send(data)
	engine.Run(300)
	if len(*delivered) != 2 {
		t.Fatal("packets lost")
	}
	if data.TotalLatency() <= meta.TotalLatency() {
		t.Fatal("5-flit data packets must take longer than 1-flit meta on the same route length")
	}
}

func TestLocalDelivery(t *testing.T) {
	n, engine, delivered := testMesh(t, PaperMesh(4))
	p := &noc.Packet{Src: 5, Dst: 5, Type: noc.Meta}
	n.Send(p)
	engine.Run(100)
	if len(*delivered) != 1 {
		t.Fatal("local packet lost")
	}
}

// TestAllToAllStressNoLoss also pins that a forward schedules nothing:
// a granted flit is buffered in the next router at once, so the mesh
// hands the engine no event and leaves none pending.
func TestAllToAllStressNoLoss(t *testing.T) {
	n, engine, _ := testMesh(t, PaperMesh(4))
	stress(t, n, engine, traffic{seed: 5, cfg: PaperMesh(4), rate: 0.08, cycles: 2000})
	if n.FlitHops() == 0 {
		t.Fatal("flit-hop accounting missing")
	}
	if engine.EventsFired() != 0 || engine.Pending() != 0 {
		t.Fatalf("the mesh scheduled %d engine events (%d pending), want none", engine.EventsFired(), engine.Pending())
	}
}

func TestCongestionRaisesLatency(t *testing.T) {
	run := func(rate float64) float64 {
		n, engine, delivered := testMesh(t, PaperMesh(4))
		rng := sim.NewRNG(9)
		for cyc := 0; cyc < 3000; cyc++ {
			engine.Run(1)
			for node := 0; node < 16; node++ {
				if rng.Bool(rate) {
					n.Send(&noc.Packet{Src: node, Dst: rng.Intn(16), Type: noc.Data})
				}
			}
		}
		engine.Run(30000)
		_ = delivered
		return n.LatencyStats().MeanTotal()
	}
	light := run(0.01)
	heavy := run(0.15)
	if heavy <= light*1.2 {
		t.Fatalf("congestion must raise latency: light=%.1f heavy=%.1f", light, heavy)
	}
}

func TestInjectQueueBound(t *testing.T) {
	cfg := PaperMesh(4)
	cfg.InjectQueue = 3
	n, _, _ := testMesh(t, cfg)
	ok := 0
	for i := 0; i < 10; i++ {
		if n.Send(&noc.Packet{Src: 0, Dst: 15, Type: noc.Data}) {
			ok++
		}
	}
	if ok != 3 {
		t.Fatalf("accepted %d, want 3", ok)
	}
}

func TestBandwidthThrottleSlowsDelivery(t *testing.T) {
	run := func(frac float64) sim.Cycle {
		cfg := PaperMesh(4)
		cfg.BandwidthFrac = frac
		n, engine, delivered := testMesh(t, cfg)
		for i := 0; i < 8; i++ {
			n.Send(&noc.Packet{Src: 0, Dst: 3, Type: noc.Data})
		}
		for engine.Now() < 4000 && len(*delivered) < 8 {
			engine.Run(10)
		}
		return engine.Now()
	}
	full := run(1.0)
	most := run(0.89)
	half := run(0.5)
	if half <= full {
		t.Fatalf("halved bandwidth must slow the burst: full=%d half=%d", full, half)
	}
	// The fractional carry must survive a send: a bank capped at one
	// flit before spending makes every fraction in (0.5, 1) behave as 0.5.
	if most <= full || most >= half {
		t.Fatalf("0.89 bandwidth must land strictly between full and half: full=%d 0.89=%d half=%d", full, most, half)
	}
}

func TestRouterCyclesAffectLatency(t *testing.T) {
	run := func(rc int) int64 {
		cfg := PaperMesh(4)
		cfg.RouterCycles = rc
		n, engine, _ := testMesh(t, cfg)
		p := &noc.Packet{Src: 0, Dst: 15, Type: noc.Meta}
		n.Send(p)
		engine.Run(200)
		return p.TotalLatency()
	}
	if run(2) >= run(4) {
		t.Fatal("shallower router pipelines must reduce latency")
	}
}

func TestMeshNumNodes(t *testing.T) {
	n, _, _ := testMesh(t, PaperMesh(4))
	if n.NumNodes() != 16 {
		t.Fatalf("nodes = %d", n.NumNodes())
	}
}

func TestL0OnlySerializationAndQueue(t *testing.T) {
	engine := sim.NewEngine()
	n := NewL0(4, engine)
	var got []*noc.Packet
	n.SetDelivery(func(p *noc.Packet, now sim.Cycle) { got = append(got, p) })
	engine.Register(sim.TickFunc(n.Tick))
	a := &noc.Packet{Src: 0, Dst: 15, Type: noc.Meta}
	b := &noc.Packet{Src: 0, Dst: 3, Type: noc.Data}
	n.Send(a)
	n.Send(b)
	engine.Run(50)
	if len(got) != 2 {
		t.Fatal("L0 lost packets")
	}
	if a.NetworkDelay != 1 {
		t.Fatalf("L0 meta network = %d, want serialization only", a.NetworkDelay)
	}
	if b.NetworkDelay != 5 {
		t.Fatalf("L0 data network = %d, want 5", b.NetworkDelay)
	}
	if b.QueuingDelay == 0 {
		t.Fatal("second packet must queue behind the serializer")
	}
}

func TestLrHopLatency(t *testing.T) {
	for _, rc := range []int{1, 2} {
		engine := sim.NewEngine()
		n := NewLr(4, rc, engine)
		n.SetDelivery(func(*noc.Packet, sim.Cycle) {})
		engine.Register(sim.TickFunc(n.Tick))
		p := &noc.Packet{Src: 0, Dst: 15, Type: noc.Meta} // 6 hops
		n.Send(p)
		engine.Run(100)
		want := int64(1 + 6*(1+rc)) // serialization + hops*(link+router)
		if p.NetworkDelay != want {
			t.Fatalf("Lr%d network = %d, want %d", rc, p.NetworkDelay, want)
		}
	}
}

func TestLrContentionFree(t *testing.T) {
	engine := sim.NewEngine()
	n := NewLr(4, 1, engine)
	count := 0
	n.SetDelivery(func(*noc.Packet, sim.Cycle) { count++ })
	engine.Register(sim.TickFunc(n.Tick))
	// Many packets to one destination: no network contention, only the
	// source serializers matter.
	for src := 0; src < 8; src++ {
		n.Send(&noc.Packet{Src: src, Dst: 15, Type: noc.Data})
	}
	engine.Run(100)
	if count != 8 {
		t.Fatalf("delivered %d of 8", count)
	}
}
