package obs

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"fsoi/internal/sim"
)

// recordedMatchesReference records events into a Recorder with the given
// limit and holds what it reads to the specification: a plain slice the
// events are appended to, cut to its first limit (limit <= 0: all of
// them), the rest Lost. Events, order, Len, Lost and the walk the exports
// take over the chunks all count.
func recordedMatchesReference(t *testing.T, limit int, events []Event) {
	t.Helper()
	got := NewRecorder(limit)
	for _, e := range events {
		got.Emit(e)
	}
	want := events
	if limit > 0 && len(want) > limit {
		want = want[:limit]
	}
	if got.Len() != len(want) || got.Lost() != int64(len(events)-len(want)) {
		t.Fatalf("limit %d: len/lost = %d/%d of %d emitted, specified %d/%d",
			limit, got.Len(), got.Lost(), len(events), len(want), len(events)-len(want))
	}
	if !slices.Equal(got.Events(), want) {
		t.Fatalf("limit %d: events differ from the first %d appended", limit, len(want))
	}
	var walked []Event
	for w := got.run(); len(w.cur) > 0; w.advance() {
		walked = append(walked, w.cur...)
	}
	if !slices.Equal(walked, want) {
		t.Fatalf("limit %d: the walk over the chunks reads %d events, not the %d appended", limit, len(walked), len(want))
	}
}

// scriptBytes is the length of one event in an emission script.
const scriptBytes = 4

// scriptEvents decodes a byte script into events: the one generator behind
// the recorder, detector and registry differential tests. Four bytes make
// one event, see scriptEvent. The event's ID is its position in the
// script, so any reordering shows. Every node keeps a clock of its own,
// so several nodes are emitted out of cycle order; with oneClock they
// all step the same one, which is how an engine fires them: cycles never
// fall.
func scriptEvents(nodes int, script []byte, oneClock bool) []Event {
	var events []Event
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
		events = append(events, Event{
			At: *at, ID: uint64(i / scriptBytes), Kind: Kind(step>>2) % numKinds,
			Src: int32(node), Dst: int32(dst)%int32(nodes+1) - 1, // -1: no destination
			Attempt: int32(detail & 31), Aux: int64(detail) * 9, Class: detail >> 7,
		})
	}
	return events
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

// withEdgeIDs renames every event's src and dst in place.
func withEdgeIDs(events []Event) {
	for i := range events {
		events[i].Src, events[i].Dst = edgeID(events[i].Src), edgeID(events[i].Dst)
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

// TestShardedMergedMatchesStableSort: one log reads back as the events
// appended to it, over random scripts, whole and cut by limits below, at
// and above their length. (The name is that of the test that held the
// log to the per-node recorders' merge it replaced.)
func TestShardedMergedMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(18)
	for trial := 0; trial < 300; trial++ {
		nodes := 1 + rng.Intn(9)
		if trial%10 == 0 {
			nodes = 64
		}
		script := randomScript(rng, 400, trial%3 != 0) // two trials in three never step a clock back
		total := len(script) / scriptBytes
		for _, limit := range []int{0, 1, total / 2, total - 1, total, total + 1} {
			recordedMatchesReference(t, limit, scriptEvents(nodes, script, trial%2 == 0))
		}
	}
}

// TestShardedMergedEdges pins the cases a random script reaches only by
// luck.
func TestShardedMergedEdges(t *testing.T) {
	var none *Recorder
	if none.Len() != 0 || none.Lost() != 0 || none.Events() != nil || none.Registry() != nil {
		t.Fatal("a nil Recorder holds nothing")
	}
	if r := NewRecorder(0); r.Len() != 0 || r.Lost() != 0 || r.Events() != nil {
		t.Fatalf("empty recorder: len %d lost %d events %v", r.Len(), r.Lost(), r.Events())
	}
	// Two events a cycle, node 1 first: the limit cuts cycle 1 after its
	// first event, which is the one that arrived first.
	var capped []Event
	for i := 0; i < 5; i++ {
		capped = append(capped, Event{At: sim.Cycle(i), ID: uint64(10 + i), Src: 1}, Event{At: sim.Cycle(i), ID: uint64(i)})
	}
	recordedMatchesReference(t, 3, capped)
	c := NewRecorder(3)
	for _, e := range capped {
		c.Emit(e)
	}
	if c.Len() != 3 || c.Lost() != 7 {
		t.Fatalf("capped: len %d lost %d, want 3 and 7", c.Len(), c.Lost())
	}
	if ev := c.Events(); ev[0].ID != 10 || ev[1].ID != 0 || ev[2].ID != 11 {
		t.Fatalf("capped recording kept ids %d %d %d, want 10 0 11: the first three to arrive", ev[0].ID, ev[1].ID, ev[2].ID)
	}
}

// TestSerialMergedAllocatesNoEventStorage: reading a recording walks the
// chunks Emit stored the events in, in the order they arrived, and
// allocates nothing.
func TestSerialMergedAllocatesNoEventStorage(t *testing.T) {
	const events = 9*chunkEvents + 17
	var r *Recorder
	record := func() {
		r = NewRecorder(0)
		for i := 0; i < events; i++ {
			r.Emit(Event{At: sim.Cycle(i / 40), ID: uint64(i), Src: int32(15 - i%16)}) // 40 a cycle, high nodes first
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
		t.Fatalf("reading allocated %v times over the recording's %v", reading, recording)
	}
	w := r.run()
	if &w.cur[0] != &r.head.ev[0] || r.flat != nil {
		t.Fatal("the exports must read the chunks where they lie")
	}
	if w.cur[0].ID != 0 || w.cur[1].ID != 1 || w.cur[2].ID != 2 {
		t.Fatalf("cycle 0 starts with ids %d %d %d, want 0 1 2: the order they arrived in", w.cur[0].ID, w.cur[1].ID, w.cur[2].ID)
	}
}

// FuzzRecorderMatchesReference holds the recorder to its specification,
// a plain slice append cut to the first limit events, over arbitrary
// emission scripts, node counts, limits and both clockings (oneClock: one
// clock for all nodes), with logs that end on either side of a chunk
// edge.
func FuzzRecorderMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(0), false, []byte{0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 3, 2, 0, 0, 1, 0x81, 0, 0, 2, 3, 0, 0})
	f.Add(uint8(64), uint8(5), false, []byte{9, 0, 1, 0, 8, 0, 1, 0, 7, 0, 1, 0, 9, 0, 2, 0, 8, 0, 2, 0, 7, 0, 2, 0, 9, 1, 3, 0})
	f.Add(uint8(1), uint8(2), false, []byte{0, 3, 0, 0, 0, 0x83, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0})
	f.Add(uint8(3), uint8(200), false, []byte{})
	f.Add(uint8(2), uint8(0), false, bytes.Repeat(scriptEvent(1, KindTxStart, 1, 0, 0), chunkEvents+1))
	// One cycle of six events from five nodes.
	cycle := slices.Concat(scriptEvent(5, KindTxStart, 1, 0, 0), scriptEvent(2, KindCollision, 0, 1, 1),
		scriptEvent(7, KindBackoff, 0, 2, 2), scriptEvent(2, KindDeliver, 0, 3, 3), scriptEvent(0, KindInject, 0, 4, 4),
		scriptEvent(5, KindConfirmDrop, 0, 5, 5), scriptEvent(1, KindInject, 1, 0, 0))
	f.Add(uint8(7), uint8(0), true, cycle)
	f.Add(uint8(7), uint8(0), false, cycle)
	// Limits that cut inside that cycle.
	f.Add(uint8(7), uint8(3), true, cycle)
	f.Add(uint8(7), uint8(4), true, cycle)
	// That cycle across the edge of the first chunk, with one, three and
	// five of its six events in the second.
	for _, before := range []int{chunkEvents - 5, chunkEvents - 3, chunkEvents - 1} {
		f.Add(uint8(7), uint8(0), true, slices.Concat(bytes.Repeat(scriptEvent(3, KindTxStart, 1, 0, 0), before), cycle))
	}
	f.Fuzz(func(t *testing.T, nodes, limit uint8, oneClock bool, script []byte) {
		n := int(nodes)%64 + 1
		recordedMatchesReference(t, int(limit), scriptEvents(n, script, oneClock))
	})
}
