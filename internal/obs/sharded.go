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
func (s *Sharded) Merged() *Recorder {
	if s == nil {
		return nil
	}
	out := &Recorder{limit: s.limit, sorted: true}
	// heads is a binary min-heap over the non-empty runs, ordered by each
	// run's next unmerged event. No two runs share a node, so (at, node)
	// never ties.
	heads := make([]runHead, 0, len(s.recs))
	total := 0
	for node, r := range s.recs {
		out.lost += r.lost
		if run := r.Events(); len(run) > 0 {
			total += len(run)
			heads = append(heads, runHead{at: run[0].At, node: node, rest: run})
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	keep := total
	if s.limit > 0 && keep > s.limit {
		keep = s.limit
	}
	out.lost += int64(total - keep)
	if keep > 0 {
		out.events = make([]Event, 0, keep)
	}
	for len(out.events) < keep {
		h := &heads[0]
		out.events = append(out.events, h.rest[0])
		if h.rest = h.rest[1:]; len(h.rest) > 0 {
			h.at = h.rest[0].At
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads, 0)
	}
	return out
}

// runHead is one per-node run inside Merged's heap: the events of the
// node not yet merged, and the key of the first of them.
type runHead struct {
	at   sim.Cycle
	node int
	rest []Event
}

// siftDown restores the min-heap order of heads below index i.
func siftDown(heads []runHead, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(heads); c++ {
			if heads[c].at < heads[least].at ||
				heads[c].at == heads[least].at && heads[c].node < heads[least].node {
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
