package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	root := NewRNG(7)
	s1 := root.NewStream("alpha")
	s2 := root.NewStream("beta")
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("named streams should be decorrelated")
	}
}

func TestRNGStreamDerivationDeterministic(t *testing.T) {
	a := NewRNG(9).NewStream("x")
	b := NewRNG(9).NewStream("x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-name streams from same state diverged")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	err := quick.Check(func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(17)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.2 {
		t.Fatalf("exponential mean = %g, want ~5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(19)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %g", p)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(31)
	z := NewZipfTable(100, 1.0).Sampler(r)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf should favor low ranks: c0=%d c50=%d", counts[0], counts[50])
	}
	if counts[0] == 0 || counts[99] == 0 {
		t.Fatal("Zipf support should cover the full range at s=1")
	}
}

func TestEngineTickOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Register(TickFunc(func(Cycle) { order = append(order, 1) }))
	e.Register(TickFunc(func(Cycle) { order = append(order, 2) }))
	e.Step()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("tick order = %v", order)
	}
}

func TestEngineEventTiming(t *testing.T) {
	e := NewEngine()
	var fired Cycle = -1
	e.At(5, func(now Cycle) { fired = now })
	e.Run(10)
	if fired != 5 {
		t.Fatalf("event fired at %d, want 5", fired)
	}
}

func TestEngineEventsBeforeTickers(t *testing.T) {
	e := NewEngine()
	var seq []string
	e.Register(TickFunc(func(now Cycle) {
		if now == 3 {
			seq = append(seq, "tick")
		}
	}))
	e.At(3, func(Cycle) { seq = append(seq, "event") })
	e.Run(5)
	if len(seq) != 2 || seq[0] != "event" || seq[1] != "tick" {
		t.Fatalf("sequence = %v, want [event tick]", seq)
	}
}

func TestEngineEventFIFOWithinCycle(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(2, func(Cycle) { order = append(order, i) })
	}
	e.Run(3)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events reordered: %v", order)
		}
	}
}

// TestEngineCounters: the profiling counters track fired events and the
// queue's high-water mark without touching the hot path's behavior.
func TestEngineCounters(t *testing.T) {
	e := NewEngine()
	for i := Cycle(1); i <= 5; i++ {
		e.At(i, func(Cycle) {})
	}
	if e.MaxQueueDepth() != 5 {
		t.Fatalf("max depth = %d, want 5 (all events queued before any fire)", e.MaxQueueDepth())
	}
	e.Run(3) // cycles 0..2: the events at cycles 1 and 2 fire
	if e.EventsFired() != 2 {
		t.Fatalf("fired = %d, want 2", e.EventsFired())
	}
	e.Run(10)
	if e.EventsFired() != 5 {
		t.Fatalf("fired = %d, want 5 after draining", e.EventsFired())
	}
	if e.MaxQueueDepth() != 5 {
		t.Fatalf("max depth moved to %d after drain, want to stay 5", e.MaxQueueDepth())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	e.At(3, func(Cycle) { e.Stop() })
	ran := e.Run(100)
	if ran != 4 {
		t.Fatalf("ran %d cycles, want 4 (stop at end of cycle 3)", ran)
	}
}

// TestEngineSteadyStateZeroAllocs pins the slab design down: once the
// wheel's node slab and the far heap have grown to their working depth,
// scheduling and firing events must not allocate at all, near or far.
// (The callback itself is hoisted to a variable so the measurement sees
// only the queue, not closure capture.)
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func(Cycle) {}
	for i := 0; i < 1024; i++ {
		e.After(Cycle(i%17), fn)
	}
	for i := 0; i < 16; i++ {
		e.After(wheelSize+Cycle(i), fn)
	}
	e.Run(wheelSize + 32)
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after warm-up", e.Pending())
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.After(Cycle(i%5+1), fn)
		}
		for i := 0; i < 8; i++ {
			e.After(wheelSize+Cycle(i), fn)
		}
		e.Run(wheelSize + 8) // the far events fire inside the run: the heap never outgrows its warm-up depth
	})
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after the measured runs", e.Pending())
	}
	if allocs != 0 {
		t.Fatalf("steady-state event scheduling allocates %.1f objects per run, want 0", allocs)
	}
}

// TestEngineSlabRetainedAcrossRun guards capacity retention: a drained
// wheel keeps its node slab (every node back on the free list), so a
// second burst of the same depth reuses it instead of re-growing.
func TestEngineSlabRetainedAcrossRun(t *testing.T) {
	e := NewEngine()
	fn := func(Cycle) {}
	for i := 0; i < 512; i++ {
		e.After(Cycle(i%31), fn)
	}
	e.Run(64)
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", e.Pending())
	}
	// 512 events plus the sentinel at index 0.
	if got := len(e.nodes); got != 513 {
		t.Fatalf("slab holds %d nodes after drain, want 513 retained", got)
	}
	free := 0
	for i := e.free; i != 0; i = e.nodes[i].next {
		if e.nodes[i].fn != nil {
			t.Fatalf("free node %d still pins a callback", i)
		}
		free++
	}
	if free != 512 {
		t.Fatalf("free list holds %d nodes after drain, want all 512", free)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 512; i++ {
			e.After(Cycle(i%31+1), fn)
		}
		e.Run(64)
	})
	if allocs != 0 {
		t.Fatalf("refilling a drained queue allocates %.1f objects, want 0", allocs)
	}
	if got := len(e.nodes); got != 513 {
		t.Fatalf("slab grew to %d nodes on refill, want 513", got)
	}
}

// TestEventQueueOrdersLikeTotalOrder drives the 4-ary heap directly
// with adversarial (at, seq) patterns and checks pops come out in
// strict (at, seq) order — the property that keeps replays
// byte-identical to the old pointer-heap implementation.
func TestEventQueueOrdersLikeTotalOrder(t *testing.T) {
	rng := NewRNG(99)
	var q eventQueue
	const n = 5000
	for seq := 0; seq < n; seq++ {
		q.push(event{at: Cycle(rng.Intn(64)), seq: uint64(seq)})
	}
	var prev event
	for i := 0; i < n; i++ {
		e := q.pop()
		if i > 0 && (e.at < prev.at || (e.at == prev.at && e.seq < prev.seq)) {
			t.Fatalf("pop %d out of order: (%d,%d) after (%d,%d)", i, e.at, e.seq, prev.at, prev.seq)
		}
		prev = e
	}
	if len(q.a) != 0 {
		t.Fatalf("%d events left after draining", len(q.a))
	}
}

func TestEnginePastEventPanics(t *testing.T) {
	e := NewEngine()
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(2, func(Cycle) {})
}

func TestEngineEventChaining(t *testing.T) {
	e := NewEngine()
	hops := 0
	var chain func(now Cycle)
	chain = func(now Cycle) {
		hops++
		if hops < 5 {
			e.After(2, chain)
		}
	}
	e.After(0, chain)
	e.Run(20)
	if hops != 5 {
		t.Fatalf("chained %d times, want 5", hops)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
}
