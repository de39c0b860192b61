package obs

import (
	"cmp"
	"slices"

	"fsoi/internal/sim"
)

// This file is the per-node recording that the one event log replaced,
// kept word for word as the reference the differential tests hold
// Recorder to: one chunked recorder per node, merged through an
// (at, node) heap.
// Only identifiers the live code still uses were renamed: Recorder,
// Sharded, chunk, run, runHead and siftDown carry a ref prefix here, in
// the code though not in its comments.

// Recorder accumulates lifecycle events for one simulation run. Events
// must be emitted in non-decreasing simulated time, which every caller
// driven by a sim.Engine does naturally; Events re-establishes the
// invariant with a stable sort so exports are deterministically ordered
// even if a caller violates it.
//
// Emissions land in fixed-size chunks the recorder allocates as it fills
// them, so recording n events allocates n/chunkEvents times and never
// copies an event already held. What the recorder holds is flat followed
// by the chunks: Events folds the chunks into flat (one copy, on the
// standalone path only; Sharded.Merged reads the chunks where they lie),
// and a merged recorder is all flat from the start.
//
// The zero of *Recorder (nil) is the disabled state: emission sites
// guard with a nil check and pay nothing else.
type refRecorder struct {
	flat       []Event
	head, tail *refChunk // emissions since flat was last built; nil when none
	fill       int       // events in tail
	n          int       // events held, flat and chunks together
	last       sim.Cycle
	unsorted   bool // some event was emitted below its predecessor's cycle
	limit      int
	lost       int64
}

// chunk is one link of a recorder's emission list. next comes first so
// that the garbage collector's scan of a chunk ends after one word.
type refChunk struct {
	next *refChunk
	ev   [chunkEvents]Event
}

// NewRecorder builds a recorder holding at most limit events; limit <= 0
// means unbounded. Once full, further events are counted in Lost rather
// than silently vanishing.
func newRefRecorder(limit int) *refRecorder {
	return &refRecorder{limit: limit}
}

// Emit appends one event.
func (r *refRecorder) Emit(e Event) {
	if r.limit > 0 && r.n >= r.limit {
		r.lost++
		return
	}
	if e.At < r.last {
		r.unsorted = true
	}
	r.last = e.At
	if r.tail == nil || r.fill == chunkEvents {
		c := new(refChunk)
		if r.tail == nil {
			r.head = c
		} else {
			r.tail.next = c
		}
		r.tail, r.fill = c, 0
	}
	r.tail.ev[r.fill] = e
	r.fill++
	r.n++
}

// run walks a recorder's events a segment at a time: flat, then each
// chunk. cur is the segment being read, empty once the walk is over.
type refRun struct {
	cur  []Event
	next *refChunk
	fill int // events in the last chunk, the only one not full
}

// run starts a walk at the recorder's first event.
func (r *refRecorder) run() refRun {
	w := refRun{cur: r.flat, next: r.head, fill: r.fill}
	if len(w.cur) == 0 {
		w.advance()
	}
	return w
}

// advance moves to the next segment. No chunk is empty: Emit allocates
// one only to store into it.
func (w *refRun) advance() {
	c := w.next
	if c == nil {
		w.cur = nil
		return
	}
	w.next = c.next
	w.cur = c.ev[:]
	if c.next == nil {
		w.cur = c.ev[:w.fill]
	}
}

// Len reports the number of recorded events.
func (r *refRecorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Lost reports how many events the limit discarded.
func (r *refRecorder) Lost() int64 {
	if r == nil {
		return 0
	}
	return r.lost
}

// Events returns the recorded events sorted by cycle, with emission
// order breaking ties (the sort is stable and emission order is itself
// deterministic under the engine, so the result is byte-stable across
// runs and worker counts). The slice is the recorder's own: it stays
// valid, and a second call returns it again, until the next Emit.
func (r *refRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.head != nil {
		flat := make([]Event, 0, r.n)
		for w := r.run(); len(w.cur) > 0; w.advance() {
			flat = append(flat, w.cur...)
		}
		r.flat, r.head, r.tail, r.fill = flat, nil, nil, 0
	}
	if r.unsorted {
		// An engine-driven caller emits in cycle order already and never
		// gets here.
		slices.SortStableFunc(r.flat, byCycle)
		r.last, r.unsorted = r.flat[len(r.flat)-1].At, false
	}
	return r.flat
}

// byCycle orders events by cycle alone, leaving ties to a stable sort.
func byCycle(a, b Event) int { return cmp.Compare(a.At, b.At) }

// CountByKind tallies events per kind in kind order.
func (r *refRecorder) CountByKind() [numKinds]int64 {
	var out [numKinds]int64
	if r == nil {
		return out
	}
	for w := r.run(); len(w.cur) > 0; w.advance() {
		for _, e := range w.cur {
			if int(e.Kind) < len(out) {
				out[e.Kind]++
			}
		}
	}
	return out
}

// Sharded is a per-node family of Recorders, the observability shape
// the windowed parallel engine requires: every emission happens into
// the emitting node's own recorder (deliveries and collisions at the
// destination, injections and backoffs at the source), so no recorder
// is ever touched from two shards. Merged restores the single-recorder
// view in a canonical order for export.
//
// Each per-node recorder gets the full event limit; the merged view is
// truncated to the limit again, keeping the earliest events — the same
// "head of the run" semantics the single Recorder's limit has.
type refSharded struct {
	recs  []*refRecorder
	limit int
}

// NewSharded builds per-node recorders, each bounded by limit (<= 0
// means unbounded, like NewRecorder).
func newRefSharded(nodes, limit int) *refSharded {
	s := &refSharded{recs: make([]*refRecorder, nodes), limit: limit}
	for i := range s.recs {
		s.recs[i] = newRefRecorder(limit)
	}
	return s
}

// For returns the recorder owned by a node. A nil *Sharded returns the
// nil *Recorder, which is the disabled state — call sites keep the
// single nil-check idiom. Out-of-range nodes (setup-time annotations
// from components without a node identity) map to node 0's recorder.
func (s *refSharded) For(node int) *refRecorder {
	if s == nil {
		return nil
	}
	if node < 0 || node >= len(s.recs) {
		node = 0
	}
	return s.recs[node]
}

// Merged collapses the per-node recorders into one by a k-way merge of
// the per-node runs keyed (cycle, node), truncated to the limit. Each
// run is already in cycle order with that node's emission order
// breaking ties, so the merged order is (cycle, node, emission order):
// what concatenating the runs in node order and stable-sorting by cycle
// produces. All three keys are partition-invariant, so the merged
// stream is byte-identical at every shard and worker count. Lost events
// are summed, plus whatever the truncation leaves unmerged.
//
// The runs are read where the recorders hold them, chunk by chunk, and
// left as they were: a second Merged returns an equal recorder.
func (s *refSharded) Merged() *refRecorder {
	if s == nil {
		return nil
	}
	out := &refRecorder{limit: s.limit}
	// heads is a binary min-heap over the non-empty runs, ordered by each
	// run's next unmerged event. No two runs share a node, so (at, node)
	// never ties. It holds values only; where each run has got to is in
	// runs, indexed by node, which no sift ever moves.
	runs := make([]refRun, len(s.recs))
	heads := make([]refRunHead, 0, len(s.recs))
	total := 0
	for node, r := range s.recs {
		out.lost += r.lost
		if r.n == 0 {
			continue
		}
		if r.unsorted {
			r.Events()
		}
		total += r.n
		runs[node] = r.run()
		heads = append(heads, refRunHead{at: runs[node].cur[0].At, node: int32(node)})
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		refSiftDown(heads, i)
	}
	keep := total
	if s.limit > 0 && keep > s.limit {
		keep = s.limit
	}
	out.lost += int64(total - keep)
	if keep == 0 {
		return out
	}
	out.flat, out.n = make([]Event, keep), keep
	for done := 0; done < keep; {
		// The head run gives up events for as long as its key stays below
		// its smaller child's, which is every other run's lower bound: the
		// heap is sifted once per change of run, not once per event.
		w := &runs[heads[0].node]
		bound, alone := refRunHead{}, len(heads) == 1
		if !alone {
			bound = heads[1]
			if len(heads) > 2 && heads[2].before(bound) {
				bound = heads[2]
			}
		}
		tie := heads[0].node < bound.node // an equal cycle still precedes bound
		for {
			seg, k := w.cur, 0
			for k < len(seg) && (alone || seg[k].At < bound.at || tie && seg[k].At == bound.at) {
				k++
			}
			done += copy(out.flat[done:], seg[:k]) // out.flat is keep long: the copy stops at the limit
			if w.cur = w.cur[k:]; len(w.cur) > 0 {
				break
			}
			if w.advance(); len(w.cur) == 0 || done == keep {
				break
			}
		}
		if len(w.cur) > 0 {
			heads[0].at = w.cur[0].At
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		refSiftDown(heads, 0)
	}
	out.last = out.flat[keep-1].At
	return out
}

// runHead is one per-node run inside Merged's heap: the key of the first
// event of the node not yet merged.
type refRunHead struct {
	at   sim.Cycle
	node int32
}

// before orders run heads by (at, node).
func (h refRunHead) before(o refRunHead) bool {
	return h.at < o.at || h.at == o.at && h.node < o.node
}

// siftDown restores the min-heap order of heads below index i.
func refSiftDown(heads []refRunHead, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(heads); c++ {
			if heads[c].before(heads[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		heads[i], heads[least] = heads[least], heads[i]
		i = least
	}
}
