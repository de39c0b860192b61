package core

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// testNet builds a network plus delivery/confirmation recorders.
func testNet(t *testing.T, cfg Config) (*Network, *sim.Engine, *[]*noc.Packet, *[]*noc.Packet) {
	t.Helper()
	engine := sim.NewEngine()
	n := New(cfg, engine, sim.NewRNG(1))
	n.SetBitErrorRate(0) // deterministic unless a test opts in
	delivered := &[]*noc.Packet{}
	confirmed := &[]*noc.Packet{}
	n.SetDelivery(func(p *noc.Packet, now sim.Cycle) { *delivered = append(*delivered, p) })
	n.SetConfirmDelivery(func(p *noc.Packet, now sim.Cycle) { *confirmed = append(*confirmed, p) })
	engine.Register(sim.TickFunc(n.Tick))
	return n, engine, delivered, confirmed
}

func basicConfig() Config {
	cfg := PaperConfig(16)
	cfg.Opt = Optimizations{}
	return cfg
}

func TestConfigSlotLengths(t *testing.T) {
	cfg := PaperConfig(16)
	if s := cfg.SlotCycles(LaneMeta); s != 2 {
		t.Fatalf("meta slot = %d, want 2 (72b over 3x12b/cyc)", s)
	}
	if s := cfg.SlotCycles(LaneData); s != 5 {
		t.Fatalf("data slot = %d, want 5 (360b over 6x12b/cyc)", s)
	}
}

func TestSingleMetaDelivery(t *testing.T) {
	n, engine, delivered, confirmed := testNet(t, basicConfig())
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	if !n.Send(p) {
		t.Fatal("send rejected")
	}
	engine.Run(20)
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d packets", len(*delivered))
	}
	// Sent at cycle 0 => slot 0 covers [0,2), delivery at cycle 2.
	if p.NetworkDelay != 2 || p.TotalLatency() != 2 {
		t.Fatalf("latency = %d (network %d), want 2", p.TotalLatency(), p.NetworkDelay)
	}
	if len(*confirmed) != 1 {
		t.Fatal("sender must receive a confirmation")
	}
}

func TestDataSlotIsFiveCycles(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Data}
	n.Send(p)
	engine.Run(20)
	if len(*delivered) != 1 || p.NetworkDelay != 5 {
		t.Fatalf("data delivery: %d packets, network=%d", len(*delivered), p.NetworkDelay)
	}
}

func TestSlotAlignment(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	// Inject mid-slot: must wait for the next boundary.
	engine.Run(1) // now = 1
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	n.Send(p)
	engine.Run(20)
	if len(*delivered) != 1 {
		t.Fatal("packet lost")
	}
	if p.QueuingDelay != 1 {
		t.Fatalf("queuing = %d, want 1 cycle of slot alignment", p.QueuingDelay)
	}
}

func TestCollisionAndRetry(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	// Sources 1 and 3 share receiver 1 (src %% 2); same slot, same dst.
	a := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	b := &noc.Packet{Src: 3, Dst: 2, Type: noc.Meta}
	n.Send(a)
	n.Send(b)
	engine.Run(300)
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d of 2 after collision", len(*delivered))
	}
	if n.Stats().Collisions[LaneMeta] == 0 {
		t.Fatal("a collision must have been recorded")
	}
	if a.Retries+b.Retries == 0 {
		t.Fatal("colliding packets must retry")
	}
	if a.ResolutionDelay+b.ResolutionDelay == 0 {
		t.Fatal("resolution delay must be accounted")
	}
}

func TestDistinctReceiversAvoidCollision(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	// Sources 1 and 2 use different receivers at the destination.
	n.Send(&noc.Packet{Src: 1, Dst: 4, Type: noc.Meta})
	n.Send(&noc.Packet{Src: 2, Dst: 4, Type: noc.Meta})
	engine.Run(20)
	if len(*delivered) != 2 || n.Stats().Collisions[LaneMeta] != 0 {
		t.Fatalf("delivered=%d collisions=%d; receiver sharding should prevent this collision",
			len(*delivered), n.Stats().Collisions[LaneMeta])
	}
}

func TestLanesAreIndependent(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	// A meta and a data packet from the same pair do not collide: they
	// use different lanes and receivers.
	n.Send(&noc.Packet{Src: 1, Dst: 2, Type: noc.Meta})
	n.Send(&noc.Packet{Src: 1, Dst: 2, Type: noc.Data})
	engine.Run(30)
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	if n.Stats().Collisions[LaneMeta]+n.Stats().Collisions[LaneData] != 0 {
		t.Fatal("cross-lane packets must not collide")
	}
}

func TestSerializerOnePacketPerSlot(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	// Two meta packets from one source to different destinations: the
	// single lane serializer sends one per slot.
	a := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	b := &noc.Packet{Src: 1, Dst: 3, Type: noc.Meta}
	n.Send(a)
	n.Send(b)
	engine.Run(20)
	if len(*delivered) != 2 {
		t.Fatal("both must deliver")
	}
	if a.QueuingDelay+b.QueuingDelay == 0 {
		t.Fatal("the second packet must wait a slot")
	}
}

func TestLoopbackBypassesOptics(t *testing.T) {
	n, engine, delivered, confirmed := testNet(t, basicConfig())
	p := &noc.Packet{Src: 3, Dst: 3, Type: noc.Data}
	n.Send(p)
	engine.Run(10)
	if len(*delivered) != 1 || p.NetworkDelay != 1 {
		t.Fatalf("loopback: %d delivered, network=%d", len(*delivered), p.NetworkDelay)
	}
	if len(*confirmed) != 1 {
		t.Fatal("loopback still confirms to keep protocol ordering alive")
	}
	if n.Stats().Attempts[LaneData] != 0 {
		t.Fatal("loopback must not use the optical lanes")
	}
}

func TestQueueOverflow(t *testing.T) {
	cfg := basicConfig()
	cfg.OutQueue = 2
	n, _, _, _ := testNet(t, cfg)
	ok := 0
	for i := 0; i < 5; i++ {
		if n.Send(&noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}) {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d, queue holds 2", ok)
	}
}

func TestPhaseArraySteeringPenalty(t *testing.T) {
	cfg := PaperConfig(64)
	cfg.Opt = Optimizations{}
	n, engine, delivered, _ := testNet(t, cfg)
	a := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	n.Send(a)
	engine.Run(20)
	if len(*delivered) != 1 {
		t.Fatal("packet lost")
	}
	if a.NetworkDelay != 2+int64(cfg.PhaseSetup) {
		t.Fatalf("first (retargeting) transmission network=%d, want slot+setup=%d",
			a.NetworkDelay, 2+cfg.PhaseSetup)
	}
	// Same destination again: no retarget penalty.
	b := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	n.Send(b)
	engine.Run(20)
	if b.NetworkDelay != 2 {
		t.Fatalf("steered-in-place transmission network=%d, want 2", b.NetworkDelay)
	}
}

func TestBitErrorsRetryLikeCollisions(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	n.SetBitErrorRate(0.02) // ~76% meta corruption probability per slot
	for i := 0; i < 4; i++ {
		n.Send(&noc.Packet{Src: 1, Dst: 2, Type: noc.Meta})
	}
	engine.Run(4000)
	if len(*delivered) != 4 {
		t.Fatalf("delivered %d of 4 under heavy BER", len(*delivered))
	}
	if n.Stats().BitErrors == 0 {
		t.Fatal("bit errors must be recorded")
	}
}

func TestRelaxedBERHasNoTangibleImpact(t *testing.T) {
	// §4.3.1: relaxing BER from 1e-10 to 1e-5 is performance-neutral
	// because the collision machinery already handles rare corruption.
	run := func(ber float64) int64 {
		n, engine, delivered, _ := testNet(t, basicConfig())
		n.SetBitErrorRate(ber)
		sent := 0
		for cyc := 0; cyc < 4000; cyc += 2 {
			src := (cyc / 2) % 8
			dst := 8 + (cyc/2)%4
			if n.Send(&noc.Packet{Src: src, Dst: dst, Type: noc.Meta}) {
				sent++
			}
			engine.Run(2)
		}
		engine.Run(500)
		if len(*delivered) != sent {
			t.Fatalf("lost packets at BER %g", ber)
		}
		return n.LatencyStats().Delivered
	}
	a := run(1e-10)
	b := run(1e-5)
	if a != b {
		t.Fatalf("delivery counts differ: %d vs %d", a, b)
	}
}

func TestConfirmBitTiming(t *testing.T) {
	cfg := PaperConfig(16)
	n, engine, _, _ := testNet(t, cfg)
	var at sim.Cycle = -1
	var gotTag uint64
	var gotVal bool
	n.SetBitDelivery(func(src, dst int, tag uint64, value bool, now sim.Cycle) {
		at, gotTag, gotVal = now, tag, value
	})
	n.SendConfirmBit(1, 2, 77, true)
	engine.Run(10)
	if at != sim.Cycle(cfg.ConfirmDelay) {
		t.Fatalf("bit arrived at %d, want %d", at, cfg.ConfirmDelay)
	}
	if gotTag != 77 || !gotVal {
		t.Fatal("bit payload corrupted")
	}
	if n.Stats().ConfirmBits != 1 {
		t.Fatal("confirm-bit counter wrong")
	}
}

func TestReceiverSchedulingHoldsRequests(t *testing.T) {
	cfg := PaperConfig(16)
	cfg.Opt = Optimizations{ReceiverScheduling: true}
	n, engine, delivered, _ := testNet(t, cfg)
	// Several data-reply-expecting requests from one node: later ones
	// should be spaced so their replies land in distinct slots.
	for i := 0; i < 6; i++ {
		n.Send(&noc.Packet{Src: 1, Dst: 2 + i, Type: noc.Meta, ExpectsDataReply: true})
	}
	engine.Run(300)
	if len(*delivered) != 6 {
		t.Fatalf("delivered %d of 6", len(*delivered))
	}
	if n.Stats().ScheduledHolds == 0 {
		t.Fatal("overlapping reply estimates must trigger request spacing")
	}
}

func TestWritebackSplitSchedules(t *testing.T) {
	cfg := PaperConfig(16)
	cfg.Opt = Optimizations{WritebackSplit: true}
	n, engine, delivered, _ := testNet(t, cfg)
	a := &noc.Packet{Src: 1, Dst: 2, Type: noc.Data, IsWriteback: true}
	n.Send(a)
	engine.Run(100)
	if len(*delivered) != 1 {
		t.Fatal("writeback lost")
	}
	if n.Stats().ScheduledHolds == 0 {
		t.Fatal("split-transaction writebacks must be scheduled")
	}
	if a.SchedulingDelay == 0 {
		t.Fatal("the announce handshake must appear as scheduling delay")
	}
}

func TestRetransmitHintSpeedsResolution(t *testing.T) {
	run := func(hints bool) float64 {
		cfg := PaperConfig(16)
		cfg.Opt = Optimizations{RetransmitHints: hints}
		cfg.HintAccuracy = 1.0
		cfg.WrongWinner = 0
		n, engine, delivered, _ := testNet(t, cfg)
		// Repeated reply collisions: pairs sharing a receiver.
		for round := 0; round < 40; round++ {
			n.Send(&noc.Packet{Src: 1, Dst: 0, Type: noc.Data, IsReply: true})
			n.Send(&noc.Packet{Src: 3, Dst: 0, Type: noc.Data, IsReply: true})
			engine.Run(60)
		}
		engine.Run(2000)
		if len(*delivered) != 80 {
			t.Fatalf("delivered %d of 80 (hints=%v)", len(*delivered), hints)
		}
		if hints && n.Stats().HintsIssued == 0 {
			t.Fatal("hints were never issued")
		}
		return n.LatencyStats().Resolution.Mean()
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("hints should cut resolution delay: with=%.2f without=%.2f", with, without)
	}
}

func TestStressAllToAllDeliversEverything(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	rng := sim.NewRNG(3)
	sent := 0
	for cyc := 0; cyc < 3000; cyc++ {
		engine.Run(1)
		if rng.Bool(0.4) {
			src := rng.Intn(16)
			dst := rng.Intn(15)
			if dst >= src {
				dst++
			}
			typ := noc.Meta
			if rng.Bool(0.4) {
				typ = noc.Data
			}
			if n.Send(&noc.Packet{Src: src, Dst: dst, Type: typ}) {
				sent++
			}
		}
	}
	engine.Run(5000)
	if len(*delivered) != sent {
		t.Fatalf("delivered %d of %d under stress", len(*delivered), sent)
	}
	st := n.Stats()
	if st.Collisions[LaneMeta]+st.Collisions[LaneData] == 0 {
		t.Fatal("stress traffic should produce some collisions")
	}
}

func TestDeterministicUnderSameSeed(t *testing.T) {
	run := func() (int64, int64) {
		engine := sim.NewEngine()
		n := New(basicConfig(), engine, sim.NewRNG(42))
		n.SetDelivery(func(*noc.Packet, sim.Cycle) {})
		engine.Register(sim.TickFunc(n.Tick))
		rng := sim.NewRNG(7)
		for cyc := 0; cyc < 1000; cyc++ {
			engine.Run(1)
			if rng.Bool(0.5) {
				src := rng.Intn(16)
				dst := (src + 1 + rng.Intn(15)) % 16
				n.Send(&noc.Packet{Src: src, Dst: dst, Type: noc.Meta})
			}
		}
		engine.Run(1000)
		return n.Stats().Attempts[LaneMeta], n.Stats().Collided[LaneMeta]
	}
	a1, c1 := run()
	a2, c2 := run()
	if a1 != a2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a1, c1, a2, c2)
	}
}

func TestTransmissionProbabilityMatchesLoad(t *testing.T) {
	n, engine, _, _ := testNet(t, basicConfig())
	// One sender transmitting every slot: p for that node-lane should
	// make the 16-node average 1/16.
	for i := 0; i < 100; i++ {
		n.Send(&noc.Packet{Src: 1, Dst: 2, Type: noc.Meta})
		engine.Run(2)
	}
	p := n.Stats().TransmissionProbability(LaneMeta)
	if p < 0.04 || p > 0.09 {
		t.Fatalf("p = %.4f, want ~1/16", p)
	}
}

func TestCollisionKindStrings(t *testing.T) {
	want := map[CollisionKind]string{
		CollisionRetransmission: "retransmission",
		CollisionWriteback:      "writeback",
		CollisionMemory:         "memory",
		CollisionReply:          "reply",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestLaneStrings(t *testing.T) {
	if LaneMeta.String() != "meta" || LaneData.String() != "data" {
		t.Fatal("lane names wrong")
	}
}
