package obs

import (
	"bytes"
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
		out.flat = append(out.flat, r.Events()...)
		out.lost += r.lost
	}
	sort.SliceStable(out.flat, func(i, j int) bool {
		return out.flat[i].At < out.flat[j].At
	})
	if s.limit > 0 && len(out.flat) > s.limit {
		out.lost += int64(len(out.flat) - s.limit)
		out.flat = out.flat[:s.limit]
	}
	out.n = len(out.flat)
	return out
}

// mergedMatchesReference builds the same per-node recording twice (Events
// folds a run into one slice, so the two merges must not share recorders)
// and compares the merge with the reference: events, order, Lost and Len.
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
	if got.head != nil || got.unsorted {
		t.Fatalf("nodes %d limit %d: the merged recorder is not one sorted slice", nodes, limit)
	}
	if !slices.Equal(got.Events(), want.Events()) {
		for i := range got.flat {
			if got.flat[i] != want.flat[i] {
				t.Fatalf("nodes %d limit %d: event %d = %+v, reference %+v", nodes, limit, i, got.flat[i], want.flat[i])
			}
		}
	}
	if !slices.IsSortedFunc(got.flat, byCycle) {
		t.Fatalf("nodes %d limit %d: merged events out of cycle order", nodes, limit)
	}
	if again := a.Merged(); !slices.Equal(again.flat, got.flat) || again.Lost() != got.Lost() {
		t.Fatalf("nodes %d limit %d: a second Merged differs from the first", nodes, limit)
	}
}

// scriptBytes is the length of one event in an emission script.
const scriptBytes = 4

// emitScript replays a byte script into per-node recorders: the one
// generator behind the merge, detector and registry differential tests.
// Four bytes make one event, see scriptEvent. The event's ID is its
// position in the script, so any reordering of equal-cycle events shows.
func emitScript(nodes int, script []byte) func(*Sharded) {
	return func(s *Sharded) {
		clock := make([]sim.Cycle, nodes)
		for i := 0; i+scriptBytes <= len(script); i += scriptBytes {
			node, step, dst, detail := int(script[i])%nodes, script[i+1], script[i+2], script[i+3]
			if step&0x80 != 0 {
				clock[node] -= sim.Cycle(step & 3)
			} else {
				clock[node] += sim.Cycle(step & 3)
			}
			s.For(node).Emit(Event{
				At: clock[node], ID: uint64(i / scriptBytes), Kind: Kind(step>>2) % numKinds,
				Src: int32(node), Dst: int32(dst)%int32(nodes+1) - 1, // -1: no destination
				Attempt: int32(detail & 31), Aux: int64(detail) * 9, Class: detail >> 7,
			})
		}
	}
}

// scriptEvent encodes one event of an emission script: the emitting node
// (taken modulo the node count), the kind, the 0-3 cycles the node's clock
// advances first, the destination (dst+1 modulo nodes+1, so -1 is "none")
// and a detail byte that gives the attempt (low five bits), the latency
// (nine times it) and the class (top bit). Setting bit 7 of the second
// byte by hand steps the clock back instead, which leaves the run
// unsorted.
func scriptEvent(node int, kind Kind, advance, dst int, detail byte) []byte {
	return []byte{byte(node), byte(kind)<<2 | byte(advance&3), byte(dst + 1), detail}
}

// randomScript draws an emission script of up to maxEvents events. With
// sorted, no event steps its node's clock back.
func randomScript(rng *sim.RNG, maxEvents int, sorted bool) []byte {
	script := make([]byte, scriptBytes*rng.Intn(maxEvents))
	for i := range script {
		script[i] = byte(rng.Intn(256))
		if i%scriptBytes == 1 && sorted {
			script[i] &^= 0x80
		}
	}
	return script
}

func TestShardedMergedMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(18)
	for trial := 0; trial < 300; trial++ {
		nodes := 1 + rng.Intn(9)
		if trial%10 == 0 {
			nodes = 64
		}
		script := randomScript(rng, 400, trial%3 != 0) // two trials in three keep every run sorted
		if trial%4 == 0 {
			for i := 0; i < len(script); i += scriptBytes {
				script[i] = byte(int(script[i]) % nodes / 2 * 2) // odd nodes stay empty
			}
		}
		total := len(script) / scriptBytes
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
	f.Add(uint8(4), uint8(0), []byte{0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 3, 2, 0, 0, 1, 0x81, 0, 0, 2, 3, 0, 0})
	f.Add(uint8(64), uint8(5), []byte{9, 0, 1, 0, 8, 0, 1, 0, 7, 0, 1, 0, 9, 0, 2, 0, 8, 0, 2, 0, 7, 0, 2, 0, 9, 1, 3, 0})
	f.Add(uint8(1), uint8(2), []byte{0, 3, 0, 0, 0, 0x83, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0})
	f.Add(uint8(3), uint8(200), []byte{})
	f.Add(uint8(2), uint8(0), bytes.Repeat(scriptEvent(1, KindTxStart, 1, 0, 0), chunkEvents+1))
	f.Fuzz(func(t *testing.T, nodes, limit uint8, script []byte) {
		n := int(nodes)%64 + 1
		mergedMatchesReference(t, n, int(limit), emitScript(n, script))
	})
}
