package shard

import (
	"fmt"
	"testing"

	"fsoi/internal/sim"
)

// BenchmarkShardStep measures the exact engine's merge loop: events
// spread over K shards with continuous reschedule churn, the regime
// where the per-event merge cost shows. The cached top-heap replaced
// an O(K) linear scan over shard heads per popped event; K=1 is the
// degenerate serial case, K=4/8 the shard counts the CI equivalence
// runs and the 1024-node scale runs use.
func BenchmarkShardStep(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			e := New(k)
			e.AssignNodes(k * 8)
			var fn func(now sim.Cycle)
			fn = func(now sim.Cycle) { e.After(sim.Cycle(int(now)%31+1), fn) }
			for i := 0; i < 4096; i++ {
				e.SetShard(i % k)
				e.After(sim.Cycle(i%63+1), fn)
			}
			e.Run(64)
			b.ReportAllocs()
			b.ResetTimer()
			e.Run(sim.Cycle(b.N))
		})
	}
}

// BenchmarkWindowsStep measures the windowed engine's serial-replay
// overhead on the same churn workload: per-window pool barriers plus
// the per-node-keyed heaps, with one worker so the number is engine
// overhead, not host parallelism.
func BenchmarkWindowsStep(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			nodes := k * 8
			w := NewWindows(k, 1)
			defer w.Close()
			w.AssignNodes(nodes)
			w.SetLookahead(2)
			scheds := make([]*NodeProxy, nodes)
			for i := range scheds {
				scheds[i] = w.ForNode(i)
			}
			fns := make([]func(now sim.Cycle), nodes)
			for i := range fns {
				i := i
				fns[i] = func(now sim.Cycle) { scheds[i].After(sim.Cycle(int(now)%31+1), fns[i]) }
			}
			for i := 0; i < 4096; i++ {
				scheds[i%nodes].After(sim.Cycle(i%63+1), fns[i%nodes])
			}
			w.Run(64)
			b.ReportAllocs()
			b.ResetTimer()
			w.Run(sim.Cycle(b.N))
		})
	}
}
