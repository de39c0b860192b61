package obs

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"fsoi/internal/sim"
)

// blocksOf cuts nodes 0..nodes-1 into k contiguous blocks the way
// a k-way partition would (fewer when there are fewer nodes).
func blocksOf(nodes, k int) []Block {
	var out []Block
	for b := 0; b < k; b++ {
		if lo, hi := b*nodes/k, (b+1)*nodes/k; hi > lo {
			out = append(out, Block{Lo: lo, Hi: hi})
		}
	}
	return out
}

// blockOf finds the block that holds node; a node out of range counts as
// node 0, as it does for Sharded.For.
func blockOf(blocks []Block, node int) int {
	if node < 0 || node >= blocks[len(blocks)-1].Hi {
		node = 0
	}
	return sort.Search(len(blocks), func(k int) bool { return blocks[k].Hi > node })
}

// emitFunc is where a script sends the events it replays: node's handle of
// some family.
type emitFunc func(node int, e Event)

func (s *Sharded) emit(node int, e Event)    { s.For(node).Emit(e) }
func (s *refSharded) emit(node int, e Event) { s.For(node).Emit(e) }

// specMerged is the per-block recording as its documentation states it,
// with none of its machinery. A block admits events until limit are held
// and from then on only those of the cycle the limit was reached in; what
// it shows is the first limit of what it admitted in (cycle, node,
// emission) order; the merged view is the first limit of all the blocks
// show, in the same order. Everything else is lost.
func specMerged(blocks []Block, limit int, script func(emitFunc)) (events []Event, lost int64) {
	type owned struct {
		Event
		node int
	}
	admitted := make([][]owned, len(blocks))
	last := make([]sim.Cycle, len(blocks))
	script(func(node int, e Event) {
		b := blockOf(blocks, node)
		if limit > 0 && len(admitted[b]) >= limit && e.At != last[b] {
			lost++
			return
		}
		admitted[b], last[b] = append(admitted[b], owned{e, node}), e.At
	})
	var all []owned
	for _, held := range admitted {
		sort.SliceStable(held, func(i, j int) bool {
			return held[i].At < held[j].At || held[i].At == held[j].At && held[i].node < held[j].node
		})
		if limit > 0 && len(held) > limit {
			lost += int64(len(held) - limit)
			held = held[:limit]
		}
		all = append(all, held...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	if limit > 0 && len(all) > limit {
		lost += int64(len(all) - limit)
		all = all[:limit]
	}
	for _, o := range all {
		events = append(events, o.Event)
	}
	return events, lost
}

// mergedMatchesReference replays one script into a per-block family cut
// into k blocks and holds its merge to two references: specMerged always,
// and the per-node family with its heap merge (sharded_reference_test.go)
// whenever the two must agree, which is when no limit is set or every
// block was emitted in cycle order, as an engine emits. (A block that was
// not, under a limit, has already refused events the per-node recorders
// were still admitting.) Events, order, Len and Lost all count.
func mergedMatchesReference(t *testing.T, nodes, k, limit int, script func(emitFunc)) {
	t.Helper()
	blocks := blocksOf(nodes, k)
	a, ref := NewSharded(blocks, limit), newRefSharded(nodes, limit)
	emitted, inOrder := 0, true
	last := make([]sim.Cycle, len(blocks))
	script(func(node int, e Event) {
		b := blockOf(blocks, node)
		inOrder = inOrder && e.At >= last[b]
		last[b] = e.At
		emitted++
		a.emit(node, e)
		ref.emit(node, e)
	})
	got := a.Merged()
	want, wantLost := specMerged(blocks, limit, script)
	if got.Len() != len(want) || got.Lost() != wantLost || got.Len()+int(got.Lost()) != emitted {
		t.Fatalf("nodes %d blocks %d limit %d: merged len/lost = %d/%d of %d emitted, specified %d/%d",
			nodes, k, limit, got.Len(), got.Lost(), emitted, len(want), wantLost)
	}
	events := got.Events()
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("nodes %d blocks %d limit %d: event %d = %+v, specified %+v", nodes, k, limit, i, events[i], want[i])
		}
	}
	if limit == 0 || inOrder {
		parent := ref.Merged()
		if !slices.Equal(events, parent.Events()) || got.Lost() != parent.Lost() {
			t.Fatalf("nodes %d blocks %d limit %d: differs from the per-node heap merge (len/lost %d/%d against %d/%d)",
				nodes, k, limit, got.Len(), got.Lost(), parent.Len(), parent.Lost())
		}
	}
	if !slices.IsSortedFunc(events, byCycle) {
		t.Fatalf("nodes %d blocks %d limit %d: merged events out of cycle order", nodes, k, limit)
	}
	if again := a.Merged(); !slices.Equal(again.Events(), events) || again.Lost() != got.Lost() {
		t.Fatalf("nodes %d blocks %d limit %d: a second Merged differs from the first", nodes, k, limit)
	}
}

// scriptBytes is the length of one event in an emission script.
const scriptBytes = 4

// emitScript replays a byte script: the one generator behind the merge,
// detector and registry differential tests. Four bytes make one event,
// see scriptEvent. The event's ID is its position in the script, so any
// reordering of equal-cycle events shows. Every node keeps a clock of its
// own, so a block of several nodes is emitted out of cycle order; with
// oneClock they all step the same one, which is how an engine emits:
// cycles never fall, and the nodes of one cycle come in any order.
func emitScript(nodes int, script []byte, oneClock bool) func(emitFunc) {
	return func(emit emitFunc) {
		clock := make([]sim.Cycle, nodes)
		for i := 0; i+scriptBytes <= len(script); i += scriptBytes {
			node, step, dst, detail := int(script[i])%nodes, script[i+1], script[i+2], script[i+3]
			at := &clock[node]
			if oneClock {
				at = &clock[0]
			}
			if step&0x80 != 0 {
				*at -= sim.Cycle(step & 3)
			} else {
				*at += sim.Cycle(step & 3)
			}
			emit(node, Event{
				At: *at, ID: uint64(i / scriptBytes), Kind: Kind(step>>2) % numKinds,
				Src: int32(node), Dst: int32(dst)%int32(nodes+1) - 1, // -1: no destination
				Attempt: int32(detail & 31), Aux: int64(detail) * 9, Class: detail >> 7,
			})
		}
	}
}

// edgeIDs are what edgeID renames a script's ids 0-5 to: the ends of a
// byte and the first id past it, the top of the range a trace may carry,
// and -1 as a source.
var edgeIDs = [...]int32{0, 1, 255, 256, math.MaxInt32, -1}

// edgeID renames a script id through edgeIDs. Ids from 6 up (and -1, no
// destination) stay: a small contiguous range beside the edges.
func edgeID(id int32) int32 {
	if id >= 0 && id < int32(len(edgeIDs)) {
		return edgeIDs[id]
	}
	return id
}

// withEdgeIDs passes each event on to emit with its src and dst renamed.
func withEdgeIDs(emit emitFunc) emitFunc {
	return func(node int, e Event) {
		e.Src, e.Dst = edgeID(e.Src), edgeID(e.Dst)
		emit(node, e)
	}
}

// scriptEvent encodes one event of an emission script: the emitting node
// (taken modulo the node count), the kind, the 0-3 cycles the clock
// advances first, the destination (dst+1 modulo nodes+1, so -1 is "none")
// and a detail byte that gives the attempt (low five bits), the latency
// (nine times it) and the class (top bit). Setting bit 7 of the second
// byte by hand steps the clock back instead, which leaves the run
// unsorted.
func scriptEvent(node int, kind Kind, advance, dst int, detail byte) []byte {
	return []byte{byte(node), byte(kind)<<2 | byte(advance&3), byte(dst + 1), detail}
}

// randomScript draws an emission script of up to maxEvents events. With
// sorted, no event steps its clock back.
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
		script := randomScript(rng, 400, trial%3 != 0) // two trials in three never step a clock back
		if trial%4 == 0 {
			for i := 0; i < len(script); i += scriptBytes {
				script[i] = byte(int(script[i]) % nodes / 2 * 2) // odd nodes stay empty
			}
		}
		if trial%5 == 0 {
			for i := 1; i < len(script); i += scriptBytes {
				script[i] &^= byte(rng.Intn(4)) // longer cycles: more nodes in each
			}
		}
		total := len(script) / scriptBytes
		for _, limit := range []int{0, 1, total / 2, total - 1, total, total + 1} {
			if limit < 0 {
				continue
			}
			mergedMatchesReference(t, nodes, 1<<(trial%4), limit, emitScript(nodes, script, trial%2 == 0))
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
	for _, k := range []int{1, 2} {
		if m := NewSharded(blocksOf(4, k), 0).Merged(); m.Len() != 0 || m.Lost() != 0 || m.Events() != nil {
			t.Fatalf("empty merge of %d blocks: len %d lost %d events %v", k, m.Len(), m.Lost(), m.Events())
		}
	}
	// Every cycle of node 2 tied with node 0's, and node 2 running backwards.
	unsorted := func(emit emitFunc) {
		for i, at := range []sim.Cycle{5, 5, 9} {
			emit(0, Event{At: at, ID: uint64(i)})
		}
		for i, at := range []sim.Cycle{9, 5, 5, 1} {
			emit(2, Event{At: at, ID: uint64(10 + i)})
		}
	}
	for _, k := range []int{1, 3} {
		mergedMatchesReference(t, 3, k, 0, unsorted)
		s := NewSharded(blocksOf(3, k), 0)
		unsorted(s.emit)
		var ids []uint64
		for _, e := range s.Merged().Events() {
			ids = append(ids, e.ID)
		}
		if want := []uint64{13, 0, 1, 11, 12, 2, 10}; !slices.Equal(ids, want) {
			t.Fatalf("%d blocks: merged ids = %v, want %v (cycle, then node, then emission order)", k, ids, want)
		}
	}
	// Owners are 16 bits wide: MaxNodes nodes are told apart, more refused.
	wide := NewSharded([]Block{{Hi: MaxNodes}}, 0)
	wide.emit(MaxNodes-1, Event{At: 7, ID: 1})
	wide.emit(0, Event{At: 7, ID: 2})
	if ev := wide.Merged().Events(); ev[0].ID != 2 || ev[1].ID != 1 {
		t.Fatalf("node %d sorted before node 0", MaxNodes-1)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("NewSharded took %d nodes", MaxNodes+1)
			}
		}()
		NewSharded([]Block{{Hi: MaxNodes + 1}}, 0)
	}()
	// One cycle a step, node 1 first: the limit is reached inside cycle 1,
	// whose node-0 event, emitted after it, still belongs to the first 3.
	capped := func(emit emitFunc) {
		for i := 0; i < 5; i++ {
			emit(1, Event{At: sim.Cycle(i), ID: uint64(10 + i)})
			emit(0, Event{At: sim.Cycle(i), ID: uint64(i)})
		}
	}
	for _, k := range []int{1, 2} {
		mergedMatchesReference(t, 2, k, 3, capped)
		s := NewSharded(blocksOf(2, k), 3)
		capped(s.emit)
		m := s.Merged()
		if m.Len() != 3 || m.Lost() != 7 {
			t.Fatalf("%d blocks, capped merge: len %d lost %d, want 3 and 7", k, m.Len(), m.Lost())
		}
		if ev := m.Events(); ev[0].ID != 0 || ev[1].ID != 10 || ev[2].ID != 1 {
			t.Fatalf("%d blocks, capped merge kept ids %d %d %d, want 0 10 1: the lowest nodes of the cut cycle", k, ev[0].ID, ev[1].ID, ev[2].ID)
		}
	}
}

// TestSettleIsIdempotent: settling a settled log moves nothing, whether it
// was emitted in cycle order (the in-place pass) or not (the whole-log
// sort), and whether or not more events arrived in between.
func TestSettleIsIdempotent(t *testing.T) {
	rng := sim.NewRNG(24)
	for trial := 0; trial < 60; trial++ {
		script := randomScript(rng, 3*chunkEvents, trial%3 != 0)
		s := NewSharded(blocksOf(8, 1), trial%4*100)
		half := len(script) / 2 / scriptBytes * scriptBytes
		emitScript(8, script[:half], true)(s.emit)
		l := s.logs[0]
		l.settle()
		snapshot := func() (evs []Event, owners []uint16) {
			l.each(func(c *chunk, i int) { evs, owners = append(evs, c.ev[i]), append(owners, c.owner[i]) })
			return evs, owners
		}
		evs, owners := snapshot()
		l.settled = 0 // force the pass to run again over the same events
		l.settle()
		if again, againOwners := snapshot(); !slices.Equal(again, evs) || !slices.Equal(againOwners, owners) {
			t.Fatalf("trial %d: a second settle moved events", trial)
		}
		// More events, then two more settles: equal to settling once at the end.
		emitScript(8, script[half:], true)(s.emit)
		fresh := NewSharded(blocksOf(8, 1), trial%4*100)
		emitScript(8, script[:half], true)(fresh.emit)
		emitScript(8, script[half:], true)(fresh.emit)
		if !slices.Equal(s.Merged().Events(), fresh.Merged().Events()) {
			t.Fatalf("trial %d: settling half way changed what the whole log settles to", trial)
		}
	}
}

// TestSerialMergedAllocatesNoEventStorage: on one block Merged is the
// block's own log, put in order where it lies. Whatever it allocates (the
// handle it returns) does not grow with the events, and the events stay
// in the chunks Emit stored them in.
func TestSerialMergedAllocatesNoEventStorage(t *testing.T) {
	const events = 9*chunkEvents + 17
	var s *Sharded
	record := func() {
		s = NewSharded(blocksOf(16, 1), 0)
		for i := 0; i < events; i++ {
			s.For(15 - i%16).Emit(Event{At: sim.Cycle(i / 40), ID: uint64(i)}) // 40 a cycle, high nodes first
		}
	}
	recording := testing.AllocsPerRun(10, record)
	merging := testing.AllocsPerRun(10, func() {
		record()
		if s.Merged().Len() != events {
			t.Fatal("the merge lost events")
		}
	})
	if merging-recording > 1 {
		t.Fatalf("Merged on one block allocated %v times over the recording's %v", merging-recording, recording)
	}
	m := s.Merged()
	if m.head != s.logs[0].head || m.flat != nil {
		t.Fatal("the merged recorder must be the block's own chunks, not a copy")
	}
	w := m.run()
	if &w.cur[0] != &s.logs[0].head.ev[0] {
		t.Fatal("the exports must read the chunks where they lie")
	}
	if w.cur[0].ID != 15 || w.cur[1].ID != 31 || w.cur[2].ID != 14 {
		t.Fatalf("cycle 0 starts with ids %d %d %d, want node 0's two events (15, 31), then node 1's", w.cur[0].ID, w.cur[1].ID, w.cur[2].ID)
	}
}

// FuzzShardedMerged holds the per-block merge to its specification and to
// the per-node heap merge over arbitrary emission scripts, node counts,
// limits, block partitions (the low two bits of cut: 1, 2, 4 or 8 blocks)
// and both clockings (bit 2 of cut: one clock for all nodes).
func FuzzShardedMerged(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(0), []byte{0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 3, 2, 0, 0, 1, 0x81, 0, 0, 2, 3, 0, 0})
	f.Add(uint8(64), uint8(5), uint8(0), []byte{9, 0, 1, 0, 8, 0, 1, 0, 7, 0, 1, 0, 9, 0, 2, 0, 8, 0, 2, 0, 7, 0, 2, 0, 9, 1, 3, 0})
	f.Add(uint8(1), uint8(2), uint8(0), []byte{0, 3, 0, 0, 0, 0x83, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0})
	f.Add(uint8(3), uint8(200), uint8(1), []byte{})
	f.Add(uint8(2), uint8(0), uint8(2), bytes.Repeat(scriptEvent(1, KindTxStart, 1, 0, 0), chunkEvents+1))
	// One cycle whose emission order is not node order: 5, 2, 7, 2, 0, 5.
	outOfOrder := slices.Concat(scriptEvent(5, KindTxStart, 1, 0, 0), scriptEvent(2, KindCollision, 0, 1, 1),
		scriptEvent(7, KindBackoff, 0, 2, 2), scriptEvent(2, KindDeliver, 0, 3, 3), scriptEvent(0, KindInject, 0, 4, 4),
		scriptEvent(5, KindConfirmDrop, 0, 5, 5), scriptEvent(1, KindInject, 1, 0, 0))
	f.Add(uint8(7), uint8(0), uint8(4), outOfOrder)
	f.Add(uint8(7), uint8(0), uint8(5), outOfOrder)
	// A limit that cuts inside that cycle, on one block and on two.
	f.Add(uint8(7), uint8(3), uint8(4), outOfOrder)
	f.Add(uint8(7), uint8(4), uint8(5), outOfOrder)
	// That cycle across the edge of the first chunk, with one, three and
	// five of its six events in the second.
	for _, before := range []int{chunkEvents - 5, chunkEvents - 3, chunkEvents - 1} {
		f.Add(uint8(7), uint8(0), uint8(4), slices.Concat(bytes.Repeat(scriptEvent(3, KindTxStart, 1, 0, 0), before), outOfOrder))
	}
	f.Fuzz(func(t *testing.T, nodes, limit, cut uint8, script []byte) {
		n := int(nodes)%64 + 1
		mergedMatchesReference(t, n, 1<<(cut&3), int(limit), emitScript(n, script, cut&4 != 0))
	})
}
