package obs

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"fsoi/internal/sim"
)

// emitCounts lists counts[node] events for each node, all nodes in step,
// highest node first, one cycle every four steps: cycles tie within a
// node and across nodes, and the events are in cycle order.
func emitCounts(counts ...int) []Event {
	var events []Event
	for i := 0; i < slices.Max(counts); i++ {
		for node := len(counts) - 1; node >= 0; node-- {
			if i < counts[node] {
				events = append(events, Event{At: sim.Cycle(i / 4), ID: uint64(len(events)), Src: int32(node)})
			}
		}
	}
	return events
}

// TestMergedAtChunkEdges: logs that end just before, on and just after a
// chunk boundary, whole and cut by a limit that falls inside a chunk or
// on its edge.
func TestMergedAtChunkEdges(t *testing.T) {
	const c = chunkEvents
	sizes := []int{0, 1, c - 1, c, c + 1, 3 * c}
	for _, n := range sizes {
		recordedMatchesReference(t, 0, emitCounts(n))
		recordedMatchesReference(t, 0, emitCounts(n, 0, n))
		recordedMatchesReference(t, 0, emitCounts(n, n/2, n, 7, n)) // 20-event cycles, then fewer
		for _, m := range sizes {
			recordedMatchesReference(t, 0, emitCounts(n, m))
		}
	}
	for _, limit := range []int{1, c - 1, c, c + 1, c + c/2, 3 * c, 6*c + 1} {
		recordedMatchesReference(t, limit, emitCounts(3*c, c+1, 3*c))
	}
}

// TestEventsFlattensOnce: a standalone recorder's Events is its emission
// order in one slice, the same slice on a second call, and still right
// after more emissions land behind it.
func TestEventsFlattensOnce(t *testing.T) {
	r := NewRecorder(0)
	emit := func(from, to int) {
		for i := from; i < to; i++ {
			r.Emit(Event{At: sim.Cycle(i / 3), ID: uint64(i)})
		}
	}
	inOrder := func(evs []Event, n int) {
		t.Helper()
		if len(evs) != n || r.Len() != n {
			t.Fatalf("%d events (Len %d), want %d", len(evs), r.Len(), n)
		}
		for i, e := range evs {
			if e.ID != uint64(i) {
				t.Fatalf("event %d has id %d", i, e.ID)
			}
		}
	}
	emit(0, 2*chunkEvents+7)
	first := r.Events()
	inOrder(first, 2*chunkEvents+7)
	if again := r.Events(); &again[0] != &first[0] || len(again) != len(first) {
		t.Fatal("a second Events must return the first one's slice")
	}
	if n := testing.AllocsPerRun(10, func() { r.Events() }); n != 0 {
		t.Fatalf("a repeated Events allocated %v times", n)
	}
	emit(2*chunkEvents+7, 3*chunkEvents+9)
	if counts := r.CountByKind(); counts[KindInject] != int64(3*chunkEvents+9) {
		t.Fatalf("CountByKind saw %d events across the slice and the chunks", counts[KindInject])
	}
	inOrder(r.Events(), 3*chunkEvents+9)
}

// TestEmitAllocatesOneChunkPerChunkEvents: recording allocates once per
// chunkEvents emissions, nothing at construction, and an event once
// stored is never moved.
func TestEmitAllocatesOneChunkPerChunkEvents(t *testing.T) {
	r := NewRecorder(0)
	if r.head != nil || r.flat != nil {
		t.Fatal("a new recorder holds no storage")
	}
	id := uint64(0)
	fill := func() {
		for i := 0; i < chunkEvents; i++ {
			r.Emit(Event{At: sim.Cycle(id), ID: id})
			id++
		}
	}
	if n := testing.AllocsPerRun(20, fill); n != 1 {
		t.Fatalf("%d emissions allocated %v times, want 1", chunkEvents, n)
	}
	first := r.head
	r.Emit(Event{At: sim.Cycle(id), ID: id})
	if r.head != first || first.ev[0].ID != 0 || first.ev[chunkEvents-1].ID != chunkEvents-1 {
		t.Fatal("the first chunk moved or changed")
	}
	chunks := 0
	for c := r.head; c != nil; c = c.next {
		chunks++
	}
	if want := 21 + 1; chunks != want || r.Len() != 21*chunkEvents+1 {
		t.Fatalf("%d chunks for %d events, want %d", chunks, r.Len(), want)
	}
	// A limit inside a chunk: the chunk is allocated, the excess counted.
	capped := NewRecorder(chunkEvents + 3)
	for i := 0; i < 2*chunkEvents; i++ {
		capped.Emit(Event{At: sim.Cycle(i)})
	}
	if capped.Len() != chunkEvents+3 || capped.Lost() != chunkEvents-3 || len(capped.Events()) != chunkEvents+3 {
		t.Fatalf("capped: len %d lost %d events %d", capped.Len(), capped.Lost(), len(capped.Events()))
	}
}

// TestChunkFitsItsSizeClass: the runtime charges a chunk less than one
// event beyond its size, so no capacity is lost to the size class it
// rounds up to. It fails when an Event or chunkEvents grows and a chunk
// spills into the next class.
func TestChunkFitsItsSizeClass(t *testing.T) {
	const n = 512 // 5 MB: the 8 bytes each chunk has to spare absorb 4 KB allocated elsewhere meanwhile
	// TotalAlloc is process-wide: another goroutine's allocations can
	// only add to a fill's count, so the least of three fresh fills is
	// the one nearest the chunks' own bytes.
	least := uint64(math.MaxUint64)
	for range 3 {
		chunks := make([]*chunk, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range chunks {
			chunks[i] = new(chunk)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		runtime.KeepAlive(chunks)
	}
	size, event := uint64(unsafe.Sizeof(chunk{})), uint64(unsafe.Sizeof(Event{}))
	if charged := least / n; charged < size || charged-size >= event {
		t.Fatalf("a %d-byte chunk of %d events is charged %d bytes; want less than one %d-byte event more",
			size, chunkEvents, charged, event)
	}
}

// TestObserveLimitBoundsHeldEvents: a limit bounds what a log holds, not
// only what it shows. 64 nodes storm for 400 cycles, between 64 and 191
// events a cycle, under a limit of 5000: the log holds the first 5000
// events in so many chunks and no more, and Len + Lost is everything
// emitted.
func TestObserveLimitBoundsHeldEvents(t *testing.T) {
	const nodes, limit = 64, 5000
	r := NewRecorder(limit)
	emitted := 0
	for at := 0; at < 400; at++ {
		for node := nodes - 1; node >= 0; node-- {
			for i := 0; i <= (at+node)%3; i++ {
				r.Emit(Event{At: sim.Cycle(at), ID: uint64(emitted), Src: int32(node)})
				emitted++
			}
		}
	}
	chunks := 0
	for c := r.head; c != nil; c = c.next {
		chunks++
	}
	if most := (limit + chunkEvents - 1) / chunkEvents; r.n != limit || chunks != most {
		t.Fatalf("the log holds %d events in %d chunks; want %d in %d", r.n, chunks, limit, most)
	}
	if r.Len() != limit || r.Len()+int(r.Lost()) != emitted || r.Events()[limit-1].ID != limit-1 {
		t.Fatalf("len %d lost %d of %d emitted", r.Len(), r.Lost(), emitted)
	}
}
