package obs

import (
	"slices"
	"sort"
	"testing"

	"fsoi/internal/sim"
)

// refMerged is Sharded.Merged as it stood before the k-way merge replaced
// it: concatenate the per-node runs in node order, stable-sort by cycle,
// truncate to the limit again. It lives here only as the reference.
func refMerged(s *Sharded) *Recorder {
	out := &Recorder{limit: s.limit}
	for _, r := range s.recs {
		out.events = append(out.events, r.Events()...)
		out.lost += r.lost
	}
	sort.SliceStable(out.events, func(i, j int) bool {
		return out.events[i].At < out.events[j].At
	})
	if s.limit > 0 && len(out.events) > s.limit {
		out.lost += int64(len(out.events) - s.limit)
		out.events = out.events[:s.limit]
	}
	out.sorted = true
	return out
}

// mergedMatchesReference builds the same per-node recording twice (Events
// sorts a run in place, so the two merges must not share recorders) and
// compares the merge with the reference: events, order, Lost and Len.
func mergedMatchesReference(t *testing.T, nodes, limit int, emit func(*Sharded)) {
	t.Helper()
	a, b := NewSharded(nodes, limit), NewSharded(nodes, limit)
	emit(a)
	emit(b)
	got, want := a.Merged(), refMerged(b)
	if got.Lost() != want.Lost() || got.Len() != want.Len() {
		t.Fatalf("nodes %d limit %d: merged len/lost = %d/%d, reference %d/%d",
			nodes, limit, got.Len(), got.Lost(), want.Len(), want.Lost())
	}
	if !slices.Equal(got.Events(), want.Events()) {
		for i := range got.events {
			if got.events[i] != want.events[i] {
				t.Fatalf("nodes %d limit %d: event %d = %+v, reference %+v", nodes, limit, i, got.events[i], want.events[i])
			}
		}
	}
	if !slices.IsSortedFunc(got.events, byCycle) {
		t.Fatalf("nodes %d limit %d: merged events out of cycle order", nodes, limit)
	}
	if again := a.Merged(); !slices.Equal(again.events, got.events) || again.Lost() != got.Lost() {
		t.Fatalf("nodes %d limit %d: a second Merged differs from the first", nodes, limit)
	}
}

// emitScript replays a byte script into per-node recorders. Each pair of
// bytes is one event: the first picks the node, the second advances that
// node's clock by 0-3 cycles (so cycles tie heavily within and across
// nodes) or, on its top bit, steps the clock back, which leaves the run
// unsorted. The event's ID is its position in the script, so any
// reordering of equal-cycle events shows.
func emitScript(nodes int, script []byte) func(*Sharded) {
	return func(s *Sharded) {
		clock := make([]sim.Cycle, nodes)
		for i := 0; i+1 < len(script); i += 2 {
			node, step := int(script[i])%nodes, script[i+1]
			if step&0x80 != 0 {
				clock[node] -= sim.Cycle(step & 3)
			} else {
				clock[node] += sim.Cycle(step & 3)
			}
			s.For(node).Emit(Event{At: clock[node], ID: uint64(i / 2), Src: int32(node), Kind: Kind(step>>2) % numKinds})
		}
	}
}

func TestShardedMergedMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(18)
	for trial := 0; trial < 300; trial++ {
		nodes := 1 + rng.Intn(9)
		if trial%10 == 0 {
			nodes = 64
		}
		script := make([]byte, 2*rng.Intn(400))
		for i := range script {
			script[i] = byte(rng.Intn(256))
			if i%2 == 1 && trial%3 != 0 {
				script[i] &^= 0x80 // two trials in three keep every run sorted
			}
		}
		if trial%4 == 0 {
			for i := 0; i < len(script); i += 2 {
				script[i] = byte(int(script[i]) % nodes / 2 * 2) // odd nodes stay empty
			}
		}
		total := len(script) / 2
		for _, limit := range []int{0, 1, total / 2, total - 1, total, total + 1} {
			if limit < 0 {
				continue
			}
			mergedMatchesReference(t, nodes, limit, emitScript(nodes, script))
		}
	}
}

// TestShardedMergedEdges pins the cases a random script reaches only by
// luck.
func TestShardedMergedEdges(t *testing.T) {
	var none *Sharded
	if none.Merged() != nil {
		t.Fatal("a nil Sharded merges to the nil Recorder")
	}
	if m := NewSharded(4, 0).Merged(); m.Len() != 0 || m.Lost() != 0 || m.Events() != nil {
		t.Fatalf("empty merge: len %d lost %d events %v", m.Len(), m.Lost(), m.Events())
	}
	// One run deliberately unsorted, every cycle tied with node 0's.
	unsorted := func(s *Sharded) {
		for i, at := range []sim.Cycle{5, 5, 9} {
			s.For(0).Emit(Event{At: at, ID: uint64(i)})
		}
		for i, at := range []sim.Cycle{9, 5, 5, 1} {
			s.For(2).Emit(Event{At: at, ID: uint64(10 + i)})
		}
	}
	mergedMatchesReference(t, 3, 0, unsorted)
	s := NewSharded(3, 0)
	unsorted(s)
	var ids []uint64
	for _, e := range s.Merged().Events() {
		ids = append(ids, e.ID)
	}
	if want := []uint64{13, 0, 1, 11, 12, 2, 10}; !slices.Equal(ids, want) {
		t.Fatalf("merged ids = %v, want %v (cycle, then node, then emission order)", ids, want)
	}
	// Per-node recorders that already lost events, then a merge that cuts
	// again: both losses are counted.
	capped := func(s *Sharded) {
		for i := 0; i < 5; i++ {
			s.For(0).Emit(Event{At: sim.Cycle(i), ID: uint64(i)})
			s.For(1).Emit(Event{At: sim.Cycle(i), ID: uint64(10 + i)})
		}
	}
	mergedMatchesReference(t, 2, 3, capped)
	s = NewSharded(2, 3)
	capped(s)
	if m := s.Merged(); m.Len() != 3 || m.Lost() != 7 {
		t.Fatalf("capped merge: len %d lost %d, want 3 and 7", m.Len(), m.Lost())
	}
}

// FuzzShardedMerged holds the k-way merge to the concatenate-and-stable-
// sort reference over arbitrary emission scripts, node counts and limits.
func FuzzShardedMerged(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 1, 1, 1, 0, 0, 3, 2, 1, 0x81, 2, 3})
	f.Add(uint8(64), uint8(5), []byte{9, 0, 8, 0, 7, 0, 9, 0, 8, 0, 7, 0, 9, 1})
	f.Add(uint8(1), uint8(2), []byte{0, 3, 0, 0x83, 0, 0, 0, 2})
	f.Add(uint8(3), uint8(200), []byte{})
	f.Fuzz(func(t *testing.T, nodes, limit uint8, script []byte) {
		n := int(nodes)%64 + 1
		mergedMatchesReference(t, n, int(limit), emitScript(n, script))
	})
}
