package noc

import "testing"

func TestPacketTypeSizes(t *testing.T) {
	if Meta.Bits() != 72 || Data.Bits() != 360 {
		t.Fatalf("bits: meta=%d data=%d", Meta.Bits(), Data.Bits())
	}
	if Meta.Flits() != 1 || Data.Flits() != 5 {
		t.Fatalf("flits: meta=%d data=%d", Meta.Flits(), Data.Flits())
	}
}

func TestPacketTypeStrings(t *testing.T) {
	if Meta.String() != "meta" || Data.String() != "data" {
		t.Fatal("type names wrong")
	}
	if PacketType(9).String() == "" {
		t.Fatal("unknown type needs fallback")
	}
}

func TestTotalLatency(t *testing.T) {
	p := &Packet{QueuingDelay: 3, SchedulingDelay: 2, NetworkDelay: 5, ResolutionDelay: 1}
	if p.TotalLatency() != 11 {
		t.Fatalf("total = %d", p.TotalLatency())
	}
}

func TestLatencyStatsRecord(t *testing.T) {
	var l LatencyStats
	l.Record(&Packet{Type: Meta, QueuingDelay: 2, NetworkDelay: 4})
	l.Record(&Packet{Type: Data, NetworkDelay: 10, ResolutionDelay: 6, Retries: 2})
	if l.Delivered != 2 {
		t.Fatalf("delivered = %d", l.Delivered)
	}
	if l.Attempts != 4 { // 1 + 1+2 retries
		t.Fatalf("attempts = %d", l.Attempts)
	}
	q, s, n, r := l.Breakdown()
	if q != 1 || s != 0 || n != 7 || r != 3 {
		t.Fatalf("breakdown = %g %g %g %g", q, s, n, r)
	}
	if l.MeanTotal() != 11 {
		t.Fatalf("mean total = %g", l.MeanTotal())
	}
	if l.ByType[Meta].N() != 1 || l.ByType[Data].N() != 1 {
		t.Fatal("per-type accounting wrong")
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 1; i <= 5; i++ {
		tr.Record(&Packet{ID: uint64(i), Type: Meta, NetworkDelay: int64(i)}, 0)
	}
	got := tr.Entries()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	if got[0].ID != 3 || got[2].ID != 5 {
		t.Fatalf("oldest-first order wrong: %v", got)
	}
	if !stringsContains(tr.String(), "retries") {
		t.Fatal("header missing")
	}
}

func TestTracerPartial(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(&Packet{ID: 9}, 4)
	got := tr.Entries()
	if len(got) != 1 || got[0].ID != 9 || got[0].At != 4 {
		t.Fatalf("partial ring: %v", got)
	}
}

func stringsContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestCollidedDataPopulation: only data packets with a positive
// resolution delay join the collided-data count and delay, in Record and
// in Merge alike.
func TestCollidedDataPopulation(t *testing.T) {
	var a, b LatencyStats
	a.Record(&Packet{Type: Data, ResolutionDelay: 30})
	a.Record(&Packet{Type: Data})                      // never collided
	a.Record(&Packet{Type: Meta, ResolutionDelay: 12}) // the meta lane's
	b.Record(&Packet{Type: Data, ResolutionDelay: 10})
	a.Merge(&b)
	if a.CollidedData != 2 || a.CollidedDataDelay != 40 {
		t.Fatalf("collided data %d packets, %d cycles; want 2 and 40", a.CollidedData, a.CollidedDataDelay)
	}
	if a.Resolution.N() != 4 {
		t.Fatalf("the all-packet resolution summary holds %d packets, want 4", a.Resolution.N())
	}
}
