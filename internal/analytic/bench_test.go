package analytic

import (
	"fmt"
	"testing"

	"fsoi/internal/sim"
)

// BenchmarkCollisionShard prices the Figure 3 kernel as fsoibench's
// analytic-mc row runs it: one op is one shard of the default 40,000
// trials (2,500 slots of 16 nodes) at each of the figure's 11
// transmission probabilities on the R = 2 curve, arrays set up included.
func BenchmarkCollisionShard(b *testing.B) {
	ps := []float64{0.33, 0.25, 0.20, 0.15, 0.10, 0.07, 0.05, 0.04, 0.03, 0.02, 0.01}
	const slots = 40000 / mcShards
	rng := sim.NewRNG(3)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			sink += collisionShard(CollisionParams{N: 16, R: 2, P: p}, rng, slots).collided
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)*slots), "ns/slot")
	if sink < 0 {
		b.Fatal(sink)
	}
}

// BenchmarkEpisode prices the Figure 4 kernel: one op is one two-packet
// collision episode, played to resolution or the 16,384-slot horizon as
// MeanResolutionDelay plays it, on one reused runner. The paper's point
// is short and stable; the corner W = 1.5, B = 1.05, G = 10 % is unstable
// and runs long, with dozens of contenders a slot.
func BenchmarkEpisode(b *testing.B) {
	for _, m := range []BackoffModel{
		{W: 2.7, B: 1.1, G: 0.01, SlotCycles: 2},
		{W: 1.5, B: 1.05, G: 0.10, SlotCycles: 2},
	} {
		b.Run(fmt.Sprintf("W%v-B%v-G%v", m.W, m.B, m.G), func(b *testing.B) {
			run := newEpisodeRunner(m)
			rng := sim.NewRNG(5)
			run.play(rng, 2, 1<<14, false) // grow the runner once, outside the timing
			b.ReportAllocs()
			b.ResetTimer()
			resolved := 0
			for i := 0; i < b.N; i++ {
				_, n, _, _ := run.play(rng, 2, 1<<14, false)
				resolved += n
			}
			if resolved < 0 {
				b.Fatal(resolved)
			}
		})
	}
}
