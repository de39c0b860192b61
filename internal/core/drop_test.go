package core

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
)

// TestMaxRetriesDropsPacket forces every transmission to corrupt
// (BER 1), so a packet can never deliver: with MaxRetries set the
// network must give up deterministically, invoke the drop callback
// exactly once, count the drop, and leave a complete lifecycle trail in
// the recorder.
func TestMaxRetriesDropsPacket(t *testing.T) {
	cfg := basicConfig()
	cfg.MaxRetries = 3
	n, engine, delivered, _ := testNet(t, cfg)
	n.SetBitErrorRate(1)
	sh := obs.NewSharded([]sim.Block{{Hi: cfg.Nodes}}, 0)
	n.SetObserver(sh)
	var dropped []*noc.Packet
	var droppedAt sim.Cycle
	n.SetDropDelivery(func(p *noc.Packet, now sim.Cycle) {
		dropped = append(dropped, p)
		droppedAt = now
	})
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	if !n.Send(p) {
		t.Fatal("send rejected")
	}
	engine.Run(5000)

	if len(*delivered) != 0 {
		t.Fatalf("delivered %d packets under BER 1", len(*delivered))
	}
	if len(dropped) != 1 || dropped[0] != p {
		t.Fatalf("drop callback fired %d times, want exactly once with the sent packet", len(dropped))
	}
	if droppedAt == 0 {
		t.Fatal("drop callback got a zero cycle stamp")
	}
	if got := n.Stats().Dropped[LaneMeta]; got != 1 {
		t.Fatalf("Stats.Dropped[meta] = %d, want 1", got)
	}
	if p.Retries != int(cfg.MaxRetries)+1 {
		t.Fatalf("packet died with %d retries, want MaxRetries+1 = %d", p.Retries, cfg.MaxRetries+1)
	}

	counts := sh.Merged().CountByKind()
	if counts[obs.KindDrop] != 1 {
		t.Fatalf("recorded %d drop events, want 1", counts[obs.KindDrop])
	}
	if counts[obs.KindTxStart] != 1 {
		t.Fatalf("recorded %d tx-start events, want 1", counts[obs.KindTxStart])
	}
	if counts[obs.KindRetransmit] != int64(cfg.MaxRetries) {
		t.Fatalf("recorded %d retransmits, want %d", counts[obs.KindRetransmit], cfg.MaxRetries)
	}
	if counts[obs.KindCollision] != int64(cfg.MaxRetries)+1 {
		t.Fatalf("recorded %d collisions, want %d", counts[obs.KindCollision], cfg.MaxRetries+1)
	}
	if counts[obs.KindDeliver] != 0 {
		t.Fatal("a dropped packet must not also record a delivery")
	}
}

// TestZeroMaxRetriesRetriesForever pins the historical default: with
// MaxRetries zero the network never abandons a packet, no matter how
// hopeless the link.
func TestZeroMaxRetriesRetriesForever(t *testing.T) {
	n, engine, delivered, _ := testNet(t, basicConfig())
	n.SetBitErrorRate(1)
	droppedCalls := 0
	n.SetDropDelivery(func(p *noc.Packet, now sim.Cycle) { droppedCalls++ })
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	if !n.Send(p) {
		t.Fatal("send rejected")
	}
	engine.Run(5000)
	if len(*delivered) != 0 {
		t.Fatal("BER 1 must block delivery")
	}
	if droppedCalls != 0 || n.Stats().Dropped[LaneMeta] != 0 {
		t.Fatalf("MaxRetries=0 dropped a packet (calls=%d, counter=%d)",
			droppedCalls, n.Stats().Dropped[LaneMeta])
	}
	if p.Retries < 10 {
		t.Fatalf("packet only retried %d times in 5000 cycles; the retry loop looks stalled", p.Retries)
	}
}

// TestDeliveredPacketNotDroppedOnConfirmLoss: a packet whose payload
// landed but whose confirmation was lost rides the timeout path and
// must NOT be dropped even past MaxRetries — dropping it would
// desynchronize sender and receiver.
func TestDeliveredPacketNotDroppedOnConfirmLoss(t *testing.T) {
	cfg := basicConfig()
	cfg.MaxRetries = 1
	n, engine, delivered, confirmed := testNet(t, cfg)
	n.SetFaultModel(&stubFault{dropLeft: 3})
	droppedCalls := 0
	n.SetDropDelivery(func(p *noc.Packet, now sim.Cycle) { droppedCalls++ })
	p := &noc.Packet{Src: 1, Dst: 2, Type: noc.Meta}
	if !n.Send(p) {
		t.Fatal("send rejected")
	}
	engine.Run(2000)
	if droppedCalls != 0 {
		t.Fatalf("confirmation-loss recovery was cut short by %d drops", droppedCalls)
	}
	if len(*delivered) != 1 || len(*confirmed) != 1 {
		t.Fatalf("delivered=%d confirmed=%d, want 1/1 after timeout recovery",
			len(*delivered), len(*confirmed))
	}
}
