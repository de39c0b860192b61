package noc

import (
	"slices"
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

// TestTracerKeepsTheLastNInRecordOrder holds the ring to its definition,
// every delivery appended to a list and cut to the last N, over random
// deliveries: cycles that tie, ids that repeat, rings of one to nine
// entries fed none to four times as many.
func TestTracerKeepsTheLastNInRecordOrder(t *testing.T) {
	rng := sim.NewRNG(38)
	for trial := 0; trial < 200; trial++ {
		n, count := 1+rng.Intn(9), rng.Intn(40)
		tr, all := NewTracer(n), []TraceEntry(nil)
		at := sim.Cycle(0)
		for i := 0; i < count; i++ {
			at += sim.Cycle(rng.Intn(2))
			p := &Packet{ID: uint64(rng.Intn(6)), Src: rng.Intn(4), Dst: rng.Intn(4), Retries: i}
			tr.Record(p, at)
			all = append(all, TraceEntry{At: at, ID: p.ID, Src: p.Src, Dst: p.Dst, Retries: i})
		}
		if got, want := tr.Entries(), all[max(0, len(all)-n):]; !slices.Equal(got, want) {
			t.Fatalf("trial %d (ring %d): entries %v, want %v", trial, n, got, want)
		}
	}
}
