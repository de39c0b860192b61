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

// TestTracerWrappedReadsInKeyOrder: a wrapped ring keeps the last N
// deliveries in (cycle, id, src) order and lists them so, whatever order
// one cycle's deliveries were recorded in: of cycle 11, cut by the ring's
// size, it keeps the three highest, not the three recorded last.
func TestTracerWrappedReadsInKeyOrder(t *testing.T) {
	type key struct {
		at  sim.Cycle
		id  uint64
		src int
	}
	tr := NewTracer(5)
	for _, k := range []key{{10, 7, 0}, {11, 9, 2}, {11, 4, 3}, {11, 9, 1}, {11, 6, 0}, {12, 8, 0}, {12, 1, 5}} {
		tr.Record(&Packet{ID: k.id, Src: k.src}, k.at)
	}
	var got []key
	for _, e := range tr.Entries() {
		got = append(got, key{e.At, e.ID, e.Src})
	}
	want := []key{{11, 6, 0}, {11, 9, 1}, {11, 9, 2}, {12, 1, 5}, {12, 8, 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("entries = %v, want %v", got, want)
	}
}

// TestTracerKeepsTheLastNByKey holds the ring to its definition, every
// delivery sorted by (cycle, id, src) and cut to the last N, over random
// deliveries: in cycle order with several a cycle, as an engine records
// them, and in no order at all.
func TestTracerKeepsTheLastNByKey(t *testing.T) {
	rng := sim.NewRNG(38)
	for trial := 0; trial < 200; trial++ {
		n, count := 1+rng.Intn(9), rng.Intn(40)
		tr, all := NewTracer(n), []TraceEntry(nil)
		at := sim.Cycle(0)
		for i := 0; i < count; i++ {
			if trial%2 == 0 {
				at += sim.Cycle(rng.Intn(2))
			} else {
				at = sim.Cycle(rng.Intn(8))
			}
			p := &Packet{ID: uint64(rng.Intn(6)), Src: rng.Intn(4)}
			tr.Record(p, at)
			all = append(all, TraceEntry{At: at, ID: p.ID, Src: p.Src})
		}
		slices.SortStableFunc(all, compareEntries)
		want := all[max(0, len(all)-n):]
		var got []TraceEntry
		for _, e := range tr.Entries() {
			got = append(got, TraceEntry{At: e.At, ID: e.ID, Src: e.Src})
		}
		if !slices.EqualFunc(got, want, func(a, b TraceEntry) bool { return compareEntries(a, b) == 0 }) {
			t.Fatalf("trial %d (ring %d): entries %v, want %v", trial, n, got, want)
		}
	}
}
