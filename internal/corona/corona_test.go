package corona

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

func testNet(t *testing.T) (*Network, *sim.Engine, *[]*noc.Packet) {
	t.Helper()
	engine := sim.NewEngine()
	n := New(PaperCorona(64), engine)
	delivered := &[]*noc.Packet{}
	n.SetDelivery(func(p *noc.Packet, now sim.Cycle) { *delivered = append(*delivered, p) })
	engine.Register(sim.TickFunc(n.Tick))
	return n, engine, delivered
}

func TestDeliveryIncludesTokenWait(t *testing.T) {
	n, engine, delivered := testNet(t)
	p := &noc.Packet{Src: 32, Dst: 5, Type: noc.Meta}
	n.Send(p)
	engine.Run(50)
	if len(*delivered) != 1 {
		t.Fatal("packet lost")
	}
	// Token circulates 64 positions in 8 cycles; max wait 8 cycles, plus
	// 2-cycle serialization and 1-cycle flight.
	if p.TotalLatency() < 3 || p.TotalLatency() > 14 {
		t.Fatalf("latency = %d", p.TotalLatency())
	}
}

func TestChannelSerializesSenders(t *testing.T) {
	n, engine, delivered := testNet(t)
	for src := 1; src <= 6; src++ {
		n.Send(&noc.Packet{Src: src, Dst: 0, Type: noc.Data})
	}
	engine.Run(500)
	if len(*delivered) != 6 {
		t.Fatalf("delivered %d of 6", len(*delivered))
	}
	// Six 5-cycle transmissions cannot all finish within one channel's
	// first 10 cycles: check the last delivery shows queueing.
	var maxLat int64
	for _, p := range *delivered {
		if p.TotalLatency() > maxLat {
			maxLat = p.TotalLatency()
		}
	}
	if maxLat < 25 {
		t.Fatalf("max latency %d; channel must serialize the burst", maxLat)
	}
}

func TestDistinctChannelsRunInParallel(t *testing.T) {
	n, engine, delivered := testNet(t)
	for dst := 0; dst < 8; dst++ {
		n.Send(&noc.Packet{Src: 20, Dst: dst, Type: noc.Meta})
	}
	engine.Run(100)
	if len(*delivered) != 8 {
		t.Fatalf("delivered %d of 8", len(*delivered))
	}
}

func TestNoCollisionsEver(t *testing.T) {
	n, engine, delivered := testNet(t)
	rng := sim.NewRNG(11)
	sent := 0
	for cyc := 0; cyc < 2000; cyc++ {
		engine.Run(1)
		for i := 0; i < 4; i++ {
			if rng.Bool(0.2) {
				if n.Send(&noc.Packet{Src: rng.Intn(64), Dst: rng.Intn(64), Type: noc.Data}) {
					sent++
				}
			}
		}
	}
	engine.Run(20000)
	if len(*delivered) != sent {
		t.Fatalf("delivered %d of %d; token arbitration must never drop", len(*delivered), sent)
	}
	for _, p := range *delivered {
		if p.ResolutionDelay != 0 {
			t.Fatal("corona has no collisions to resolve")
		}
	}
}

func TestInjectQueueBound(t *testing.T) {
	n, _, _ := testNet(t)
	ok := 0
	for i := 0; i < 100; i++ {
		if n.Send(&noc.Packet{Src: 1, Dst: 2, Type: noc.Data}) {
			ok++
		}
	}
	if ok != PaperCorona(64).InjectQueue {
		t.Fatalf("accepted %d, want the queue bound", ok)
	}
}

func TestTokenWaitRecorded(t *testing.T) {
	n, engine, _ := testNet(t)
	n.Send(&noc.Packet{Src: 40, Dst: 1, Type: noc.Meta})
	engine.Run(40)
	if n.TokenGrants == 0 {
		t.Fatal("token wait must be sampled")
	}
	if m := float64(n.TokenWaitCycles) / float64(n.TokenGrants); m < 0 || m > 8 {
		t.Fatalf("mean token wait %.1f outside one round trip", m)
	}
}

// variantNet builds a crossbar from an arbitrary config.
func variantNet(t *testing.T, cfg Config) (*Network, *sim.Engine, *[]*noc.Packet) {
	t.Helper()
	engine := sim.NewEngine()
	n := New(cfg, engine)
	delivered := &[]*noc.Packet{}
	n.SetDelivery(func(p *noc.Packet, now sim.Cycle) { *delivered = append(*delivered, p) })
	engine.Register(sim.TickFunc(n.Tick))
	return n, engine, delivered
}

func TestMatrixIsNonBlocking(t *testing.T) {
	n, engine, delivered := variantNet(t, MatrixCrossbar(64))
	// Six senders to one destination: dedicated (src,dst) wavelengths
	// mean none of them waits on another.
	for src := 1; src <= 6; src++ {
		n.Send(&noc.Packet{Src: src, Dst: 0, Type: noc.Data})
	}
	engine.Run(100)
	if len(*delivered) != 6 {
		t.Fatalf("delivered %d of 6", len(*delivered))
	}
	for _, p := range *delivered {
		// 5-cycle serialization + 1 flight, no queuing, no token.
		if p.TotalLatency() != 6 {
			t.Fatalf("matrix latency = %d, want contention-free 6", p.TotalLatency())
		}
	}
	if n.TokenGrants != 0 {
		t.Fatal("matrix crossbar must never sample a token wait")
	}
}

func TestSnakeSerializesPerSource(t *testing.T) {
	n, engine, delivered := variantNet(t, SnakeCrossbar(64))
	// One source to six distinct destinations: the source-owned snake
	// channel serializes them even though the destinations differ.
	for dst := 1; dst <= 6; dst++ {
		n.Send(&noc.Packet{Src: 0, Dst: dst, Type: noc.Data})
	}
	engine.Run(200)
	if len(*delivered) != 6 {
		t.Fatalf("delivered %d of 6", len(*delivered))
	}
	var maxLat int64
	for _, p := range *delivered {
		if p.TotalLatency() > maxLat {
			maxLat = p.TotalLatency()
		}
	}
	// Six 5-cycle transmissions back to back: the last waits ~25 cycles.
	if maxLat < 25 {
		t.Fatalf("max latency %d; source channel must serialize the burst", maxLat)
	}
}

func TestSnakeDistinctSourcesRunInParallel(t *testing.T) {
	n, engine, delivered := variantNet(t, SnakeCrossbar(64))
	for src := 0; src < 8; src++ {
		n.Send(&noc.Packet{Src: src, Dst: 63, Type: noc.Meta})
	}
	engine.Run(100)
	if len(*delivered) != 8 {
		t.Fatalf("delivered %d of 8", len(*delivered))
	}
	for _, p := range *delivered {
		// Per-source channels with per-source drop filters: concurrent
		// arrivals at one reader never queue behind each other.
		if p.TotalLatency() != 3 {
			t.Fatalf("snake latency = %d, want contention-free 3", p.TotalLatency())
		}
	}
}
