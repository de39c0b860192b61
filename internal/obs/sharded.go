package obs

import "fsoi/internal/sim"

// Sharded is a family of per-node Recorder handles over one event log
// per engine block, the observability shape the engines require: a block
// (sim.Block) is the nodes whose events one shard fires, and every
// emission happens in the emitting node's own context (deliveries and
// collisions at the destination, injections and backoffs at the source),
// so no log is ever touched from two shards. Merged restores the
// single-recorder view in a canonical order for export, cut to the event
// limit each log got: the "head of the run" a lone Recorder's limit keeps.
type Sharded struct {
	logs    []*eventLog // one per block, in block order, which is node order
	handles []Recorder  // one per node, on its block's log
	limit   int
}

// NewSharded builds one log per block, each bounded by limit (<= 0 means
// unbounded), and one handle per node. The blocks are sim.Blocks':
// contiguous, ascending from node 0, at most MaxNodes nodes in all.
func NewSharded(blocks []sim.Block, limit int) *Sharded {
	s := &Sharded{logs: make([]*eventLog, len(blocks)), limit: limit}
	for k, b := range blocks {
		if b.Hi > MaxNodes {
			panic("obs: NewSharded: more than MaxNodes nodes")
		}
		s.logs[k] = &eventLog{limit: limit}
		for node := b.Lo; node < b.Hi; node++ {
			s.handles = append(s.handles, Recorder{s.logs[k], uint16(node)})
		}
	}
	return s
}

// For returns the handle a node emits through. A nil *Sharded returns the
// nil *Recorder, the disabled state: call sites keep the single nil-check
// idiom. Out-of-range nodes (components without one) map to node 0's.
func (s *Sharded) For(node int) *Recorder {
	if s == nil {
		return nil
	}
	if node < 0 || node >= len(s.handles) {
		node = 0
	}
	return &s.handles[node]
}

// Merged is the whole recording in the canonical order (cycle, node, that
// node's emission order), cut to the limit. All three keys are
// partition-invariant, so the stream is byte-identical at every shard and
// worker count. One block's log, settled where it lies, is that already.
// Several are settled and merged by (cycle, block) into a fresh log: a
// block's nodes all precede the next block's, so that is node order.
func (s *Sharded) Merged() *Recorder {
	if s == nil {
		return nil
	}
	if len(s.logs) == 1 {
		return &Recorder{eventLog: s.logs[0]}
	}
	out := NewRecorder(s.limit)
	runs := make([]run, len(s.logs))
	for k, l := range s.logs {
		block := Recorder{eventLog: l}
		runs[k] = block.run()
		out.lost += block.Lost()
	}
	for {
		// The block whose next event is earliest, the first such on a tie,
		// gives up that cycle's events; past the limit out counts them lost.
		var w *run
		for k := range runs {
			if o := &runs[k]; len(o.cur) > 0 && (w == nil || o.cur[0].At < w.cur[0].At) {
				w = o
			}
		}
		if w == nil {
			out.settled = out.n // merged in canonical order: nothing to restore
			return out
		}
		for at := w.cur[0].At; len(w.cur) > 0 && w.cur[0].At == at; {
			out.Emit(w.cur[0])
			if w.cur = w.cur[1:]; len(w.cur) == 0 {
				w.advance()
			}
		}
	}
}
