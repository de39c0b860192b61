package system

import (
	"testing"

	"fsoi/internal/cache"
	"fsoi/internal/sim"
	"fsoi/internal/workload"
)

// TestMissRoundSteadyStateZeroAllocs extends core's
// TestPacketRoundSteadyStateZeroAllocs up the stack: once the pools, queues
// and tables of a node have seen its working set, a whole miss allocates
// nothing. A round fills node 3's miss-status file with write misses on
// lines the L2 slices hold, so each one is a request over the ordered
// transport and the FSOI network (reply slot reserved, send time logged),
// a directory lookup, a Data(M) through the L2 pipeline and back over the
// network, an install that evicts a modified line, that line's writeback
// as a split transaction, and complete.
func TestMissRoundSteadyStateZeroAllocs(t *testing.T) {
	s := New(Default(16, NetFSOI))
	l1 := s.L1(3)
	mshrs := Default(16, NetFSOI).L1.MSHRs
	const window = 512 // lines cycled through: four times the L1, half of the 16 slices' L2
	next, completed := 0, 0
	done := func(sim.Cycle) { completed++ }
	round := func() {
		for i := 0; i < mshrs; i++ {
			if !l1.Access(workload.SharedBase+cache.LineAddr(next%window), true, done) {
				t.Fatal("L1 refused a miss with a free miss-status entry")
			}
			next++
		}
		for limit := 0; l1.Outstanding() > 0 && limit < 1000; limit++ {
			s.Engine().Run(20)
		}
		s.Engine().Run(100) // the evictions' writebacks and the last confirmations
	}
	rounds := 4 * window / mshrs // the first pass is cold: memory fetches, slab and table growth
	for i := 0; i < rounds; i++ {
		round()
	}
	if completed != rounds*mshrs || l1.Outstanding() != 0 {
		t.Fatalf("warm-up completed %d of %d accesses, %d outstanding", completed, rounds*mshrs, l1.Outstanding())
	}
	st := l1.Stats()
	if int(st.Misses) != completed || st.Writebacks < st.Misses-128 {
		t.Fatalf("warm-up: %d misses and %d writebacks for %d accesses: the round is not the miss-and-evict path", st.Misses, st.Writebacks, completed)
	}
	if fs := s.fsoi.Stats(); fs.ScheduledHolds == 0 {
		t.Fatal("warm-up held no packet: receiver scheduling and the writeback split are not being measured")
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a steady-state round of %d misses allocates %.2f objects, want 0", mshrs, allocs)
	}
}
