package obs

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"fsoi/internal/sim"
)

// emitFunc is where a script sends the events it replays: node's emissions
// into some recording.
type emitFunc func(node int, e Event)

func (r *Recorder) emit(node int, e Event)   { r.EmitAs(node, e) }
func (s *refSharded) emit(node int, e Event) { s.For(node).Emit(e) }

// specRecorded is the recording as its documentation states it, with none
// of its machinery. The log admits events until limit are held and from
// then on only those of the cycle the limit was reached in; what it shows
// is the first limit of what it admitted, in (cycle, node, emission)
// order. Everything else is lost.
func specRecorded(limit int, script func(emitFunc)) (events []Event, lost int64) {
	type owned struct {
		Event
		node int
	}
	var admitted []owned
	var last sim.Cycle
	script(func(node int, e Event) {
		if limit > 0 && len(admitted) >= limit && e.At != last {
			lost++
			return
		}
		admitted, last = append(admitted, owned{e, node}), e.At
	})
	sort.SliceStable(admitted, func(i, j int) bool {
		return admitted[i].At < admitted[j].At || admitted[i].At == admitted[j].At && admitted[i].node < admitted[j].node
	})
	if limit > 0 && len(admitted) > limit {
		lost += int64(len(admitted) - limit)
		admitted = admitted[:limit]
	}
	for _, o := range admitted {
		events = append(events, o.Event)
	}
	return events, lost
}

// recordedMatchesReference replays one script into a Recorder, each event
// with its node as owner, and holds what it reads to two references:
// specRecorded always, and the per-node recorders with their heap merge
// (sharded_reference_test.go) whenever the two must agree, which is when
// no limit is set or the script was emitted in cycle order, as an engine
// emits. (A log that was not, under a limit, has already refused events
// the per-node recorders were still admitting.) Events, order, Len and
// Lost all count.
func recordedMatchesReference(t *testing.T, nodes, limit int, script func(emitFunc)) {
	t.Helper()
	got, ref := NewRecorder(limit), newRefSharded(nodes, limit)
	emitted, inOrder, last := 0, true, sim.Cycle(0)
	script(func(node int, e Event) {
		inOrder = inOrder && e.At >= last
		last = e.At
		emitted++
		got.emit(node, e)
		ref.emit(node, e)
	})
	want, wantLost := specRecorded(limit, script)
	if got.Len() != len(want) || got.Lost() != wantLost || got.Len()+int(got.Lost()) != emitted {
		t.Fatalf("nodes %d limit %d: len/lost = %d/%d of %d emitted, specified %d/%d",
			nodes, limit, got.Len(), got.Lost(), emitted, len(want), wantLost)
	}
	events := got.Events()
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("nodes %d limit %d: event %d = %+v, specified %+v", nodes, limit, i, events[i], want[i])
		}
	}
	if limit == 0 || inOrder {
		parent := ref.Merged()
		if !slices.Equal(events, parent.Events()) || got.Lost() != parent.Lost() {
			t.Fatalf("nodes %d limit %d: differs from the per-node heap merge (len/lost %d/%d against %d/%d)",
				nodes, limit, got.Len(), got.Lost(), parent.Len(), parent.Lost())
		}
	}
	if !slices.IsSortedFunc(events, byCycle) {
		t.Fatalf("nodes %d limit %d: events out of cycle order", nodes, limit)
	}
}

// scriptBytes is the length of one event in an emission script.
const scriptBytes = 4

// emitScript replays a byte script: the one generator behind the
// recorder, detector and registry differential tests. Four bytes make one event,
// see scriptEvent. The event's ID is its position in the script, so any
// reordering of equal-cycle events shows. Every node keeps a clock of its
// own, so several nodes are emitted out of cycle order; with
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

// TestShardedMergedMatchesStableSort: per-node emissions into one log read
// back as the per-node recorders' merge would, over random scripts.
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
			recordedMatchesReference(t, nodes, limit, emitScript(nodes, script, trial%2 == 0))
		}
	}
}

// TestShardedMergedEdges pins the cases a random script reaches only by
// luck.
func TestShardedMergedEdges(t *testing.T) {
	var none *Recorder
	if none.Len() != 0 || none.Lost() != 0 || none.Events() != nil {
		t.Fatal("a nil Recorder holds nothing")
	}
	if r := NewRecorder(0); r.Len() != 0 || r.Lost() != 0 || r.Events() != nil {
		t.Fatalf("empty recorder: len %d lost %d events %v", r.Len(), r.Lost(), r.Events())
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
	recordedMatchesReference(t, 3, 0, unsorted)
	r := NewRecorder(0)
	unsorted(r.emit)
	var ids []uint64
	for _, e := range r.Events() {
		ids = append(ids, e.ID)
	}
	if want := []uint64{13, 0, 1, 11, 12, 2, 10}; !slices.Equal(ids, want) {
		t.Fatalf("ids = %v, want %v (cycle, then node, then emission order)", ids, want)
	}
	// Owners are 16 bits wide: MaxNodes nodes are told apart.
	wide := NewRecorder(0)
	wide.EmitAs(MaxNodes-1, Event{At: 7, ID: 1})
	wide.EmitAs(0, Event{At: 7, ID: 2})
	if ev := wide.Events(); ev[0].ID != 2 || ev[1].ID != 1 {
		t.Fatalf("node %d sorted before node 0", MaxNodes-1)
	}
	// One cycle a step, node 1 first: the limit is reached inside cycle 1,
	// whose node-0 event, emitted after it, still belongs to the first 3.
	capped := func(emit emitFunc) {
		for i := 0; i < 5; i++ {
			emit(1, Event{At: sim.Cycle(i), ID: uint64(10 + i)})
			emit(0, Event{At: sim.Cycle(i), ID: uint64(i)})
		}
	}
	recordedMatchesReference(t, 2, 3, capped)
	c := NewRecorder(3)
	capped(c.emit)
	if c.Len() != 3 || c.Lost() != 7 {
		t.Fatalf("capped: len %d lost %d, want 3 and 7", c.Len(), c.Lost())
	}
	if ev := c.Events(); ev[0].ID != 0 || ev[1].ID != 10 || ev[2].ID != 1 {
		t.Fatalf("capped recording kept ids %d %d %d, want 0 10 1: the lowest nodes of the cut cycle", ev[0].ID, ev[1].ID, ev[2].ID)
	}
}

// TestSettleIsIdempotent: settling a settled log moves nothing, whether it
// was emitted in cycle order (the in-place pass) or not (the whole-log
// sort), and whether or not more events arrived in between.
func TestSettleIsIdempotent(t *testing.T) {
	rng := sim.NewRNG(24)
	for trial := 0; trial < 60; trial++ {
		script := randomScript(rng, 3*chunkEvents, trial%3 != 0)
		r := NewRecorder(trial % 4 * 100)
		half := len(script) / 2 / scriptBytes * scriptBytes
		emitScript(8, script[:half], true)(r.emit)
		r.settle()
		snapshot := func() (evs []Event, owners []uint16) {
			r.each(func(c *chunk, i int) { evs, owners = append(evs, c.ev[i]), append(owners, c.owner[i]) })
			return evs, owners
		}
		evs, owners := snapshot()
		r.settled = 0 // force the pass to run again over the same events
		r.settle()
		if again, againOwners := snapshot(); !slices.Equal(again, evs) || !slices.Equal(againOwners, owners) {
			t.Fatalf("trial %d: a second settle moved events", trial)
		}
		// More events, then two more settles: equal to settling once at the end.
		emitScript(8, script[half:], true)(r.emit)
		fresh := NewRecorder(trial % 4 * 100)
		emitScript(8, script[:half], true)(fresh.emit)
		emitScript(8, script[half:], true)(fresh.emit)
		if !slices.Equal(r.Events(), fresh.Events()) {
			t.Fatalf("trial %d: settling half way changed what the whole log settles to", trial)
		}
	}
}

// TestSerialMergedAllocatesNoEventStorage: reading a recording puts it in
// order where it lies. Settling and walking it allocate nothing, and the
// exports read the events in the chunks Emit stored them in.
func TestSerialMergedAllocatesNoEventStorage(t *testing.T) {
	const events = 9*chunkEvents + 17
	var r *Recorder
	record := func() {
		r = NewRecorder(0)
		for i := 0; i < events; i++ {
			r.EmitAs(15-i%16, Event{At: sim.Cycle(i / 40), ID: uint64(i)}) // 40 a cycle, high nodes first
		}
	}
	recording := testing.AllocsPerRun(10, record)
	reading := testing.AllocsPerRun(10, func() {
		record()
		if w := r.run(); len(w.cur) == 0 || r.Len() != events {
			t.Fatal("the recording lost events")
		}
	})
	if reading > recording {
		t.Fatalf("settling allocated %v times over the recording's %v", reading, recording)
	}
	w := r.run()
	if &w.cur[0] != &r.head.ev[0] || r.flat != nil {
		t.Fatal("the exports must read the chunks where they lie")
	}
	if w.cur[0].ID != 15 || w.cur[1].ID != 31 || w.cur[2].ID != 14 {
		t.Fatalf("cycle 0 starts with ids %d %d %d, want node 0's two events (15, 31), then node 1's", w.cur[0].ID, w.cur[1].ID, w.cur[2].ID)
	}
}

// FuzzRecorderMatchesReference holds the recorder to its specification and
// to the per-node heap merge over arbitrary emission scripts, node counts,
// limits and both clockings (oneClock: one clock for all nodes).
func FuzzRecorderMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(0), false, []byte{0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 3, 2, 0, 0, 1, 0x81, 0, 0, 2, 3, 0, 0})
	f.Add(uint8(64), uint8(5), false, []byte{9, 0, 1, 0, 8, 0, 1, 0, 7, 0, 1, 0, 9, 0, 2, 0, 8, 0, 2, 0, 7, 0, 2, 0, 9, 1, 3, 0})
	f.Add(uint8(1), uint8(2), false, []byte{0, 3, 0, 0, 0, 0x83, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0})
	f.Add(uint8(3), uint8(200), false, []byte{})
	f.Add(uint8(2), uint8(0), false, bytes.Repeat(scriptEvent(1, KindTxStart, 1, 0, 0), chunkEvents+1))
	// One cycle whose emission order is not node order: 5, 2, 7, 2, 0, 5.
	outOfOrder := slices.Concat(scriptEvent(5, KindTxStart, 1, 0, 0), scriptEvent(2, KindCollision, 0, 1, 1),
		scriptEvent(7, KindBackoff, 0, 2, 2), scriptEvent(2, KindDeliver, 0, 3, 3), scriptEvent(0, KindInject, 0, 4, 4),
		scriptEvent(5, KindConfirmDrop, 0, 5, 5), scriptEvent(1, KindInject, 1, 0, 0))
	f.Add(uint8(7), uint8(0), true, outOfOrder)
	f.Add(uint8(7), uint8(0), false, outOfOrder)
	// Limits that cut inside that cycle.
	f.Add(uint8(7), uint8(3), true, outOfOrder)
	f.Add(uint8(7), uint8(4), true, outOfOrder)
	// That cycle across the edge of the first chunk, with one, three and
	// five of its six events in the second.
	for _, before := range []int{chunkEvents - 5, chunkEvents - 3, chunkEvents - 1} {
		f.Add(uint8(7), uint8(0), true, slices.Concat(bytes.Repeat(scriptEvent(3, KindTxStart, 1, 0, 0), before), outOfOrder))
	}
	f.Fuzz(func(t *testing.T, nodes, limit uint8, oneClock bool, script []byte) {
		n := int(nodes)%64 + 1
		recordedMatchesReference(t, n, int(limit), emitScript(n, script, oneClock))
	})
}
