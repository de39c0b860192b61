package obs

import "fsoi/internal/sim"

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
type Sharded struct {
	recs  []*Recorder
	limit int
}

// NewSharded builds per-node recorders, each bounded by limit (<= 0
// means unbounded, like NewRecorder).
func NewSharded(nodes, limit int) *Sharded {
	s := &Sharded{recs: make([]*Recorder, nodes), limit: limit}
	for i := range s.recs {
		s.recs[i] = NewRecorder(limit)
	}
	return s
}

// For returns the recorder owned by a node. A nil *Sharded returns the
// nil *Recorder, which is the disabled state — call sites keep the
// single nil-check idiom. Out-of-range nodes (setup-time annotations
// from components without a node identity) map to node 0's recorder.
func (s *Sharded) For(node int) *Recorder {
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
func (s *Sharded) Merged() *Recorder {
	if s == nil {
		return nil
	}
	out := &Recorder{limit: s.limit}
	// heads is a binary min-heap over the non-empty runs, ordered by each
	// run's next unmerged event. No two runs share a node, so (at, node)
	// never ties. It holds values only; where each run has got to is in
	// runs, indexed by node, which no sift ever moves.
	runs := make([]run, len(s.recs))
	heads := make([]runHead, 0, len(s.recs))
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
		heads = append(heads, runHead{at: runs[node].cur[0].At, node: int32(node)})
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
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
		bound, alone := runHead{}, len(heads) == 1
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
		siftDown(heads, 0)
	}
	out.last = out.flat[keep-1].At
	return out
}

// runHead is one per-node run inside Merged's heap: the key of the first
// event of the node not yet merged.
type runHead struct {
	at   sim.Cycle
	node int32
}

// before orders run heads by (at, node).
func (h runHead) before(o runHead) bool {
	return h.at < o.at || h.at == o.at && h.node < o.node
}

// siftDown restores the min-heap order of heads below index i.
func siftDown(heads []runHead, i int) {
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
