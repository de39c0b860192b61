package shard

import (
	"fmt"
	"reflect"
	"testing"

	"fsoi/internal/sim"
)

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
	scheds := make([]Scheduler, nodes)
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
			sh := scheds[src].(*NodeProxy)
			sh.Handoff(sh.NodeShard(dst), now+la, hop(dst, hops-1))
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
		sh := sched.(*NodeProxy)
		sh.Handoff(sh.NodeShard(3), now+1, func(sim.Cycle) {})
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
		if !w.Stopped() {
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
	p := w.ForNode(0).(*NodeProxy)
	p.Handoff(p.NodeShard(3), 1, func(now sim.Cycle) { fired = true })
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
		sh := sched.(*NodeProxy)
		sh.Handoff(sh.NodeShard(1), now+2, func(sim.Cycle) {}) // tight: lands on the barrier
		sh.Handoff(sh.NodeShard(1), now+3, func(sim.Cycle) {})
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
