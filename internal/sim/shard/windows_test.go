package shard

import (
	"fmt"
	"reflect"
	"testing"

	"fsoi/internal/sim"
)

// Now reports the engine clock: the start of the next window. Inside a
// window, components read their shard-local clock through their proxy.
func (w *Windows) Now() sim.Cycle { return w.now }

// Stop requests that Run return at the next window barrier.
func (w *Windows) Stop() { w.stopped = true }

// EventsFired reports how many events have executed across all shards.
func (w *Windows) EventsFired() uint64 {
	n := uint64(0)
	for _, s := range w.shards {
		n += s.fired
	}
	return n
}

// At schedules fn on the node's home shard at cycle at.
func (p *NodeProxy) At(at sim.Cycle, fn func(now sim.Cycle)) {
	s := p.w.shards[p.shard]
	if at < s.now {
		panic("sim: event scheduled in the past")
	}
	p.w.seqs[p.node]++
	s.q.push(wEvent{at: at, node: p.node, seq: p.w.seqs[p.node], fn: fn})
}

// After schedules fn delay cycles from the node's shard-local clock.
func (p *NodeProxy) After(delay sim.Cycle, fn func(now sim.Cycle)) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	p.At(p.w.shards[p.shard].now+delay, fn)
}

// Register adds a per-node ticker to the node's home shard sweep.
// Registration is setup-time only; the sweep order is registration
// order restricted to the shard, so each node's tickers keep their
// relative order at every shard count.
func (p *NodeProxy) Register(t sim.Ticker) {
	if p.w.running {
		panic("shard: ticker registered during a window")
	}
	s := p.w.shards[p.shard]
	s.tickers = append(s.tickers, wTicker{node: p.node, t: t})
}

// Stop requests a stop at the next window barrier. The request is
// shard-local until the barrier commits it, so other shards never
// observe it mid-window — which is what keeps the final cycle count
// partition-invariant.
func (p *NodeProxy) Stop() {
	s := p.w.shards[p.shard]
	s.stop = true
	if !p.w.running {
		p.w.stopped = true
	}
}

// ForNode returns the scheduling surface for one node.
func (w *Windows) ForNode(node int) *NodeProxy {
	if node < 0 || node >= len(w.proxies) {
		panic(fmt.Sprintf("shard: ForNode(%d) outside the assigned range [0,%d)", node, len(w.proxies)))
	}
	return &w.proxies[node]
}

// Handoff schedules fn on node dst's shard. Same-shard handoffs push
// directly (they are ordinary events). Cross-shard handoffs while a
// window is running are buffered in the shard's out-buffer for the
// barrier — and must land at or beyond the window barrier: an earlier
// cycle may already have executed on the destination shard, so the
// engine panics rather than corrupt causality. At setup time the
// destination heap is quiescent and the push is direct.
func (p *NodeProxy) Handoff(dst int, at sim.Cycle, fn func(now sim.Cycle)) {
	w := p.w
	shard := w.nodeShard[dst]
	s := w.shards[p.shard]
	if shard == p.shard {
		p.At(at, fn)
		return
	}
	w.seqs[p.node]++
	ev := wEvent{at: at, node: p.node, seq: w.seqs[p.node], fn: fn}
	if !w.running {
		if at < w.now {
			panic("shard: handoff scheduled in the past")
		}
		w.shards[shard].q.push(ev)
		return
	}
	if at < w.windowEnd {
		panic(fmt.Sprintf("shard: cross-shard handoff at cycle %d under the window barrier %d (lookahead %d): the model broke its declared lookahead",
			at, w.windowEnd, w.la))
	}
	s.handoffs++
	if at == w.windowEnd {
		s.tight++
	}
	s.out[shard] = append(s.out[shard], ev)
}

// windowsTranscript runs a small message-passing model — each node
// ticks a local counter, fires a chain of cross-node handoffs honouring
// the lookahead, and logs every event it executes — and returns the
// per-node logs concatenated in node order. The model follows the
// Windows contract: node-owned state, all scheduling through the
// node's own proxy, cross-node interaction only via Handoff at >= LA
// ahead.
func windowsTranscript(t *testing.T, nodes, shards, workers int, cycles sim.Cycle) []string {
	t.Helper()
	const la = 2
	w := NewWindows(shards, workers)
	defer w.Close()
	w.AssignNodes(nodes)
	w.SetLookahead(la)

	logs := make([][]string, nodes)
	ticks := make([]int, nodes)
	scheds := make([]*NodeProxy, nodes)
	for i := 0; i < nodes; i++ {
		scheds[i] = w.ForNode(i)
	}
	// Each node's ticker counts cycles; the count is folded into the log
	// at each event so tick/event interleaving differences would show.
	for i := 0; i < nodes; i++ {
		i := i
		scheds[i].Register(sim.TickFunc(func(now sim.Cycle) { ticks[i]++ }))
	}

	// hop forwards a token from node src to (src*7+3)%nodes, la cycles
	// out, logging at both ends. Declared inside each node's execution
	// context via the closure chain.
	var hop func(src int, hops int) func(now sim.Cycle)
	hop = func(src, hops int) func(now sim.Cycle) {
		return func(now sim.Cycle) {
			logs[src] = append(logs[src], fmt.Sprintf("n%d@%d hops=%d ticks=%d", src, now, hops, ticks[src]))
			if hops == 0 {
				return
			}
			dst := (src*7 + 3) % nodes
			scheds[src].Handoff(dst, now+la, hop(dst, hops-1))
			// A same-node follow-up inside the window exercises the
			// local heap path.
			scheds[src].After(1, func(now sim.Cycle) {
				logs[src] = append(logs[src], fmt.Sprintf("n%d@%d local ticks=%d", src, now, ticks[src]))
			})
		}
	}
	for i := 0; i < nodes; i++ {
		scheds[i].At(sim.Cycle(i%3), hop(i, 20))
	}
	w.Run(cycles)

	var out []string
	for i := 0; i < nodes; i++ {
		out = append(out, logs[i]...)
	}
	out = append(out, fmt.Sprintf("cycles=%d fired=%d", w.Now(), w.EventsFired()))
	return out
}

// TestWindowsWorkerInvariance: the transcript is byte-identical at
// every worker count for a fixed shard count.
func TestWindowsWorkerInvariance(t *testing.T) {
	ref := windowsTranscript(t, 16, 4, 1, 200)
	for _, workers := range []int{2, 4, 8} {
		got := windowsTranscript(t, 16, 4, workers, 200)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("transcript diverged at %d workers:\nref %v\ngot %v", workers, ref, got)
		}
	}
}

// TestWindowsShardInvariance: the transcript is byte-identical at
// every shard count for a fixed worker count.
func TestWindowsShardInvariance(t *testing.T) {
	ref := windowsTranscript(t, 16, 1, 1, 200)
	for _, shards := range []int{2, 4, 8, 16} {
		got := windowsTranscript(t, 16, shards, 4, 200)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("transcript diverged at %d shards:\nref %v\ngot %v", shards, ref, got)
		}
	}
}

// TestWindowsUnderLookaheadPanics: a cross-shard handoff under the
// window barrier must panic, not silently reorder.
func TestWindowsUnderLookaheadPanics(t *testing.T) {
	w := NewWindows(2, 1)
	defer w.Close()
	w.AssignNodes(4)
	w.SetLookahead(4)
	sched := w.ForNode(0)
	sched.At(0, func(now sim.Cycle) {
		defer func() {
			if recover() == nil {
				t.Error("under-lookahead handoff did not panic")
			}
			w.Stop()
		}()
		sched.Handoff(3, now+1, func(sim.Cycle) {})
	})
	w.Run(8)
}

// TestWindowsStopAtBarrier: stops commit at window barriers, so the
// cycle count is a multiple of the lookahead regardless of which
// in-window cycle requested the stop — that is what keeps "cycles"
// metrics partition-invariant.
func TestWindowsStopAtBarrier(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := NewWindows(4, workers)
		w.AssignNodes(8)
		w.SetLookahead(4)
		sched := w.ForNode(5)
		sched.At(9, func(now sim.Cycle) { sched.Stop() })
		ran := w.Run(100)
		w.Close()
		if ran != 12 {
			t.Fatalf("workers=%d: ran %d cycles, want stop committed at the cycle-12 barrier", workers, ran)
		}
		if !w.stopped {
			t.Fatalf("workers=%d: stop not committed", workers)
		}
	}
}

// TestWindowsSetupHandoff: before the first window, handoffs push
// straight into the destination heap (construction-time wiring).
func TestWindowsSetupHandoff(t *testing.T) {
	w := NewWindows(2, 1)
	defer w.Close()
	w.AssignNodes(4)
	w.SetLookahead(2)
	fired := false
	w.ForNode(0).Handoff(3, 1, func(now sim.Cycle) { fired = true })
	w.Run(4)
	if !fired {
		t.Fatal("setup-time handoff never fired")
	}
}

// TestWindowsMeters: handoff and window meters add up.
func TestWindowsMeters(t *testing.T) {
	w := NewWindows(2, 1)
	defer w.Close()
	w.AssignNodes(2)
	w.SetLookahead(2)
	sched := w.ForNode(0)
	sched.At(0, func(now sim.Cycle) {
		sched.Handoff(1, now+2, func(sim.Cycle) {}) // tight: lands on the barrier
		sched.Handoff(1, now+3, func(sim.Cycle) {})
	})
	w.Run(6)
	if w.Handoffs() != 2 {
		t.Fatalf("handoffs = %d, want 2", w.Handoffs())
	}
	if w.TightHandoffs() != 1 {
		t.Fatalf("tight handoffs = %d, want 1", w.TightHandoffs())
	}
	if w.WindowCount() != 3 {
		t.Fatalf("windows = %d, want 3", w.WindowCount())
	}
}
