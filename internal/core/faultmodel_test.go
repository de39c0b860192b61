package core

import (
	"math"
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
)

// stubFault is a hand-steerable FaultModel for protocol-level tests.
type stubFault struct {
	ber      float64
	dropLeft int // confirmations to drop before passing the rest
	ext      [numLanes]int
}

func (s *stubFault) BitErrorRate(src int, now sim.Cycle) float64 { return s.ber }
func (s *stubFault) SlotExtension(src int, l Lane) int           { return s.ext[l] }
func (s *stubFault) DropConfirm(src, dst int, now sim.Cycle) bool {
	if s.dropLeft > 0 {
		s.dropLeft--
		return true
	}
	return false
}

func TestConfirmDropRecoversByTimeout(t *testing.T) {
	n, engine, delivered, confirmed := testNet(t, basicConfig())
	n.SetFaultModel(&stubFault{dropLeft: 1})
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	if !n.Send(p) {
		t.Fatal("send rejected")
	}
	engine.Run(200)
	// The payload must reach the coherence layer exactly once (the
	// retransmitted copy is deduplicated) and the sender must still end
	// up confirmed — recovery, not silent loss.
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d times, want exactly 1 (dedup)", len(*delivered))
	}
	if len(*confirmed) != 1 {
		t.Fatalf("confirmed %d times, want 1 after timeout retransmission", len(*confirmed))
	}
	if p.Retries != 1 {
		t.Fatalf("packet records %d retries, want 1", p.Retries)
	}
	st := n.Stats()
	if st.ConfirmDrops != 1 || st.TimeoutRetransmits != 1 || st.DuplicateDeliveries != 1 {
		t.Fatalf("counters drops=%d timeouts=%d dups=%d, want 1/1/1",
			st.ConfirmDrops, st.TimeoutRetransmits, st.DuplicateDeliveries)
	}
}

func TestConfirmDropDoesNotWedgeUnderLoad(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	n.SetFaultModel(&stubFault{dropLeft: 50})
	sent := 0
	for cyc := 0; cyc < 2000; cyc += 2 {
		src := (cyc / 2) % 8
		dst := 8 + (cyc/2)%4
		if n.Send(&noc.Packet{Src: src, Dst: dst, Type: noc.Meta}) {
			sent++
		}
		engine.Run(2)
	}
	engine.Run(2000)
	if len(*delivered) != sent {
		t.Fatalf("delivered %d of %d with confirmation drops", len(*delivered), sent)
	}
	if n.Stats().ConfirmDrops != 50 {
		t.Fatalf("recorded %d drops, want 50", n.Stats().ConfirmDrops)
	}
}

func TestSlotExtensionDelaysDelivery(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	n.SetFaultModel(&stubFault{ext: [numLanes]int{0, 3}})
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Data}
	n.Send(p)
	engine.Run(50)
	if len(*delivered) != 1 {
		t.Fatal("degraded node must still deliver")
	}
	// Failed VCSELs stretch serialization: 5-cycle slot + 3 extra.
	if p.NetworkDelay != 8 {
		t.Fatalf("network delay = %d, want 8 (5 + 3 degradation)", p.NetworkDelay)
	}
	if n.Stats().DegradedTransmissions != 1 {
		t.Fatal("degraded transmission not counted")
	}
}

func TestMetaCorruptionIsAlwaysHeader(t *testing.T) {
	// A meta packet is all PID/~PID-protected header, so every injected
	// corruption must surface as a misdetected collision — the paper's
	// own detection path — and never as a CRC error.
	n, engine, delivered, _ := testNet(t, basicConfig())
	n.SetFaultModel(&stubFault{ber: 0.02})
	sent := 0
	for cyc := 0; cyc < 2000; cyc += 2 {
		if n.Send(&noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}) {
			sent++
		}
		engine.Run(2)
	}
	engine.Run(4000)
	if len(*delivered) != sent {
		t.Fatalf("delivered %d of %d", len(*delivered), sent)
	}
	st := n.Stats()
	if st.HeaderCorruptions == 0 {
		t.Fatal("2% BER over 72-bit packets must corrupt some headers")
	}
	if st.PayloadCRCErrors != 0 {
		t.Fatalf("meta corruption produced %d CRC errors, want 0", st.PayloadCRCErrors)
	}
	if st.Collisions[LaneMeta] < st.HeaderCorruptions {
		t.Fatal("header corruptions must be counted as collisions")
	}
}

func TestDataCorruptionSplitsHeaderAndPayload(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	n.SetFaultModel(&stubFault{ber: 0.005})
	sent := 0
	for cyc := 0; cyc < 4000; cyc += 5 {
		if n.Send(&noc.Packet{Src: 1, Dst: 2, Type: noc.Data}) {
			sent++
		}
		engine.Run(5)
	}
	engine.Run(4000)
	if len(*delivered) != sent {
		t.Fatalf("delivered %d of %d", len(*delivered), sent)
	}
	st := n.Stats()
	// 360-bit data packets are 20% header: with enough corruptions both
	// paths must fire, and payload (CRC) errors dominate.
	if st.HeaderCorruptions == 0 || st.PayloadCRCErrors == 0 {
		t.Fatalf("want both kinds, got header=%d payload=%d",
			st.HeaderCorruptions, st.PayloadCRCErrors)
	}
	if st.PayloadCRCErrors <= st.HeaderCorruptions {
		t.Fatalf("payload errors (%d) should outnumber header errors (%d) 4:1",
			st.PayloadCRCErrors, st.HeaderCorruptions)
	}
}

// TestBackoffCapAndTimeoutDefaults: PaperConfig states the backoff cap
// and the confirmation timeout, a network waits by the fields as they
// are (no zero stands for a default), and New refuses a cap at which
// colliding senders retry in lockstep.
func TestBackoffCapAndTimeoutDefaults(t *testing.T) {
	if p := PaperConfig(16); p.MaxBackoffSlots != 256 || p.ConfirmTimeoutSlots != 4 {
		t.Fatalf("PaperConfig sets cap %g and timeout %d, want 256 and 4", p.MaxBackoffSlots, p.ConfirmTimeoutSlots)
	}
	// With W far above either cap, a retry waits up to the cap: never
	// more than 8 slots (plus the two-slot handback) under a cap of 8,
	// and more than that under 256.
	for _, cap := range []float64{8, 256} {
		cfg := PaperConfig(64)
		cfg.WindowW, cfg.MaxBackoffSlots = 300, cap
		h := hotspotOf(cfg)
		rec := obs.NewRecorder(0)
		h.n.SetObserver(rec)
		h.run(256)
		longest := int64(0)
		for _, e := range rec.Events() {
			if e.Kind == obs.KindBackoff {
				longest = max(longest, e.Aux-int64(e.At)/int64(cfg.SlotCycles(Lane(e.Lane))))
			}
		}
		if capped := longest <= 8+3; capped != (cap == 8) {
			t.Errorf("cap %g: the longest wait is %d slots", cap, longest)
		}
	}
	// A dropped confirmation is retried the timeout's slots later.
	retry := map[int]int64{}
	for _, timeout := range []int{4, 9} {
		cfg := basicConfig()
		cfg.ConfirmTimeoutSlots = timeout
		n, engine, _, _ := testNet(t, cfg)
		n.SetFaultModel(&stubFault{dropLeft: 1})
		rec := obs.NewRecorder(0)
		n.SetObserver(rec)
		if !n.Send(&noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}) {
			t.Fatal("send rejected")
		}
		engine.Run(200)
		for _, e := range rec.Events() {
			if e.Kind == obs.KindConfirmDrop {
				retry[timeout] = e.Aux
			}
		}
	}
	if retry[9]-retry[4] != 5 || retry[4] == 0 {
		t.Errorf("a drop retries at slot %d under a 4-slot timeout and %d under 9", retry[4], retry[9])
	}
	// A cap of at most one slot makes every retry wait exactly one slot:
	// refused. Just above one is legal (whether it wedges depends on the
	// workload, and an unfinished run says so).
	for _, limit := range []float64{-1, 0, 0.5, 1, 1.0001, 2} {
		c := basicConfig()
		c.MaxBackoffSlots = limit
		func() {
			defer func() {
				if r := recover(); (r != nil) != (limit <= LockstepBackoffSlots) {
					t.Errorf("MaxBackoffSlots %v: New panicked with %v", limit, r)
				}
			}()
			New(c, sim.NewEngine(), sim.NewRNG(1))
		}()
	}
}

// TestWindowTableIsPow: a backoff window comes from the table New builds
// for the first attempts and from math.Pow past its end, and either way
// has exactly the bits W*math.Pow(B, attempt-1) has, at the paper's W and
// B, with no growth, with a window above the cap (the cap applies after)
// and with a base one rounding step above 1.
func TestWindowTableIsPow(t *testing.T) {
	for _, wb := range []struct{ w, b float64 }{{2.7, 1.1}, {2.7, 1}, {300, 1.1}, {2.7, 1 + 1e-9}} {
		cfg := PaperConfig(16)
		cfg.WindowW, cfg.BackoffB = wb.w, wb.b
		n := New(cfg, sim.NewEngine(), sim.NewRNG(1))
		const attempts = 200
		if len(n.windows) >= attempts {
			t.Fatalf("the table holds %d windows: attempts up to %d never reach its end", len(n.windows), attempts)
		}
		for a := 1; a <= attempts; a++ {
			got, want := n.window(a), wb.w*math.Pow(wb.b, float64(a-1))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("W=%v B=%v attempt %d: window %v (%#x), math.Pow gives %v (%#x)", wb.w, wb.b, a, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestCorruptionProbMemoMissesOnAnyChange: the remembered value is
// returned only for the exact (BER, size, lane) it was computed for. A
// fault model hands every launch its own BER, so a stale hit would move
// the corruption draw's argument and with it every canonical byte.
func TestCorruptionProbMemoMissesOnAnyChange(t *testing.T) {
	ns := &nodeState{}
	direct := func(ber float64, bits int) float64 { return 1 - math.Pow(1-ber, float64(bits)) }
	steps := []struct {
		lane Lane
		ber  float64
		bits int
	}{
		{LaneMeta, 1e-10, 72},
		{LaneMeta, 1e-10, 72},                    // hit
		{LaneMeta, math.Nextafter(1e-10, 1), 72}, // one ulp away: miss
		{LaneMeta, 1e-10, 72},                    // back again: miss
		{LaneData, 1e-10, 360},                   // other lane, its own slot
		{LaneMeta, 1e-10, 360},                   // same BER, other size
		{LaneData, 0.02, 360},
		{LaneData, 1e-10, 360},
	}
	for i, s := range steps {
		if got, want := ns.corruptionProb(s.lane, s.ber, s.bits), direct(s.ber, s.bits); got != want {
			t.Fatalf("step %d %+v: corruptionProb = %v, direct formula %v", i, s, got, want)
		}
	}
}

// TestHopelessLinkRetriesForever: the network never abandons a packet,
// no matter how hopeless the link. Under BER 1 nothing delivers, and the
// sender keeps retrying.
func TestHopelessLinkRetriesForever(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	n.SetBitErrorRate(1)
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	if !n.Send(p) {
		t.Fatal("send rejected")
	}
	engine.Run(5000)
	if len(*delivered) != 0 {
		t.Fatal("BER 1 must block delivery")
	}
	if p.Retries < 10 {
		t.Fatalf("packet only retried %d times in 5000 cycles; the retry loop looks stalled", p.Retries)
	}
}

// TestDeliveredPacketNotDroppedOnConfirmLoss: a packet whose payload
// landed but whose confirmation was lost three times rides the timeout
// path to exactly one delivery and one confirmation.
func TestDeliveredPacketNotDroppedOnConfirmLoss(t *testing.T) {
	n, engine, delivered, confirmed := testNet(t, basicConfig())
	n.SetFaultModel(&stubFault{dropLeft: 3})
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	if !n.Send(p) {
		t.Fatal("send rejected")
	}
	engine.Run(2000)
	if len(*delivered) != 1 || len(*confirmed) != 1 {
		t.Fatalf("delivered=%d confirmed=%d, want 1/1 after timeout recovery",
			len(*delivered), len(*confirmed))
	}
}
