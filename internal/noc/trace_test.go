package noc

import (
	"testing"

	"fsoi/internal/sim"
)

// TestTracerRingWraparound: a 4-entry ring fed 6 packets keeps the last
// 4, oldest first.
func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 6; i++ {
		tr.Record(&Packet{ID: uint64(i), Src: i, Dst: i + 1}, sim.Cycle(i*10))
	}
	got := tr.Entries()
	if len(got) != 4 {
		t.Fatalf("entries = %d, want 4", len(got))
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if got[i].ID != want {
			t.Fatalf("entry %d id = %d, want %d (oldest-first order)", i, got[i].ID, want)
		}
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(&Packet{ID: 7}, 1)
	tr.Record(&Packet{ID: 8}, 2)
	got := tr.Entries()
	if len(got) != 2 || got[0].ID != 7 || got[1].ID != 8 {
		t.Fatalf("partial ring wrong: %+v", got)
	}
}
