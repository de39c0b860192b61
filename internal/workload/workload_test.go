package workload

import (
	"runtime"
	"testing"

	"fsoi/internal/cache"
	"fsoi/internal/cpu"
)

func TestSuiteHasSixteenApps(t *testing.T) {
	apps := Suite(1.0)
	if len(apps) != 16 {
		t.Fatalf("suite has %d apps, want 16", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		if names[a.Name] {
			t.Fatalf("duplicate app %s", a.Name)
		}
		names[a.Name] = true
		if a.Steps <= 0 || a.ReadFrac <= 0 || a.ReadFrac > 1 || a.SharedFrac < 0 || a.SharedFrac > 1 {
			t.Fatalf("%s has invalid parameters: %+v", a.Name, a)
		}
	}
	for _, want := range []string{"barnes", "fft", "mp3d", "tsp", "em3d", "jacobi", "shallow", "ilink"} {
		if !names[want] {
			t.Fatalf("suite missing %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("fft", 1); !ok {
		t.Fatal("fft should exist")
	}
	if _, ok := ByName("doom", 1); ok {
		t.Fatal("doom should not exist")
	}
}

func TestScaleShortensStreams(t *testing.T) {
	full, _ := ByName("lu", 1.0)
	short, _ := ByName("lu", 0.1)
	if short.Steps >= full.Steps {
		t.Fatal("scaling down must shorten the stream")
	}
	tiny, _ := ByName("lu", 0.000001)
	if tiny.Steps < 64 {
		t.Fatal("streams have a minimum length")
	}
}

// drain pulls every op from a stream.
func drain(s *Stream) []cpu.Op {
	var ops []cpu.Op
	for {
		op, ok := s.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

func TestStreamDeterminism(t *testing.T) {
	app, _ := ByName("barnes", 0.05)
	a := drain(NewStream(app, 3, 16, 42))
	b := drain(NewStream(app, 3, 16, 42))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestNewStreamsMatchesNewStream: the streams of a run share one Zipf
// table, and each is still op for op the stream NewStream builds alone,
// when drained in step with its siblings (each draws from its own "zipf"
// sub-stream, never from the table's owner).
func TestNewStreamsMatchesNewStream(t *testing.T) {
	for _, name := range []string{"raytrace", "tsp", "mp3d"} { // Zipf 0.8, 0.9 and none
		app, _ := ByName(name, 0.02)
		const nodes = 4
		shared := NewStreams(app, nodes, 42)
		alone := make([]*Stream, nodes)
		for node := range alone {
			alone[node] = NewStream(app, node, nodes, 42)
		}
		for live := nodes; live > 0; { // round-robin, as cores interleave
			live = 0
			for node := range shared {
				a, okA := shared[node].Next()
				b, okB := alone[node].Next()
				if a != b || okA != okB {
					t.Fatalf("%s node %d: shared-table stream gave %+v/%v, NewStream %+v/%v", name, node, a, okA, b, okB)
				}
				if okA {
					live++
				}
			}
		}
	}
}

// TestNewStreamsBuildsOneZipfTable: sixteen raytrace streams cost one
// 4096-entry table (32 KB), not sixteen.
func TestNewStreamsBuildsOneZipfTable(t *testing.T) {
	app, _ := ByName("raytrace", 0.02)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	streams := NewStreams(app, 16, 42)
	runtime.ReadMemStats(&after)
	table := uint64(app.SharedLines) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*table {
		t.Fatalf("NewStreams allocated %d bytes for %d streams; one Zipf table is %d", got, len(streams), table)
	}
}

func TestStreamsDifferAcrossNodes(t *testing.T) {
	app, _ := ByName("barnes", 0.05)
	a := drain(NewStream(app, 0, 16, 42))
	b := drain(NewStream(app, 1, 16, 42))
	same := 0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			same++
		}
	}
	if float64(same)/float64(n) > 0.9 {
		t.Fatal("per-node streams should not be near-identical")
	}
}

func TestBarrierCountsMatchAcrossThreads(t *testing.T) {
	app, _ := ByName("ocean", 0.2)
	count := func(node int) int {
		n := 0
		for _, op := range drain(NewStream(app, node, 16, 1)) {
			if op.Kind == cpu.OpBarrier {
				n++
			}
		}
		return n
	}
	c0 := count(0)
	if c0 == 0 {
		t.Fatal("ocean must emit barriers")
	}
	for node := 1; node < 16; node++ {
		if c := count(node); c != c0 {
			t.Fatalf("node %d emits %d barriers, node 0 emits %d — deadlock", node, c, c0)
		}
	}
	if want := app.Steps / app.BarrierEvery; c0 != want {
		t.Fatalf("emitted %d barriers, want Steps/BarrierEvery = %d", c0, want)
	}
}

func TestLockSectionsAreBalanced(t *testing.T) {
	app, _ := ByName("raytrace", 0.2)
	acq, rel := 0, 0
	depth := 0
	for _, op := range drain(NewStream(app, 2, 16, 1)) {
		switch op.Kind {
		case cpu.OpLockAcquire:
			acq++
			depth++
			if depth > 1 {
				t.Fatal("nested critical sections not expected")
			}
		case cpu.OpLockRelease:
			rel++
			depth--
			if depth < 0 {
				t.Fatal("release without acquire")
			}
		}
	}
	if acq == 0 || acq != rel {
		t.Fatalf("acquires=%d releases=%d", acq, rel)
	}
}

func TestAddressRegions(t *testing.T) {
	app, _ := ByName("fft", 0.1)
	s := NewStream(app, 5, 16, 1)
	sawPrivate, sawShared := false, false
	for _, op := range drain(s) {
		if op.Kind != cpu.OpLoad && op.Kind != cpu.OpStore {
			continue
		}
		switch {
		case op.Addr >= SharedBase:
			sawShared = true
		case op.Addr >= PrivateBase:
			sawPrivate = true
		default:
			t.Fatalf("address %#x below the private base", uint64(op.Addr))
		}
	}
	if !sawPrivate || !sawShared {
		t.Fatalf("private=%v shared=%v; both regions must be touched", sawPrivate, sawShared)
	}
}

func TestPrivateRegionsDisjoint(t *testing.T) {
	app, _ := ByName("tsp", 0.1)
	mine := map[cache.LineAddr]bool{}
	for _, op := range drain(NewStream(app, 3, 16, 1)) {
		if (op.Kind == cpu.OpLoad || op.Kind == cpu.OpStore) && op.Addr < SharedBase && op.Addr >= PrivateBase {
			mine[op.Addr] = true
		}
	}
	for _, op := range drain(NewStream(app, 4, 16, 1)) {
		if (op.Kind == cpu.OpLoad || op.Kind == cpu.OpStore) && op.Addr < SharedBase && op.Addr >= PrivateBase {
			if mine[op.Addr] {
				t.Fatalf("address %#x appears in two private regions", uint64(op.Addr))
			}
		}
	}
}

// TestStreamsDistinctAtLargeN is the regression test for the node%64
// stream-derivation bug: at 256 nodes, nodes 64 apart drew from the
// same RNG stream and emitted byte-identical operation sequences. No
// two of the 256 threads may share their first-K op prefix.
func TestStreamsDistinctAtLargeN(t *testing.T) {
	const nodes, k = 256, 64
	app, _ := ByName("fft", 0.05)
	seen := map[string]int{}
	for node := 0; node < nodes; node++ {
		s := NewStream(app, node, nodes, 7)
		var sig []byte
		for i := 0; i < k; i++ {
			op, ok := s.Next()
			if !ok {
				break
			}
			sig = append(sig, []byte(opKey(op))...)
		}
		if prev, dup := seen[string(sig)]; dup {
			t.Fatalf("nodes %d and %d emit identical first-%d op sequences", prev, node, k)
		}
		seen[string(sig)] = node
	}
}

func opKey(op cpu.Op) string {
	return string(rune(op.Kind)) + "/" + string(rune(op.ID)) + "/" +
		string(rune(op.Cycles)) + "/" + addrKey(op.Addr)
}

func addrKey(a cache.LineAddr) string {
	return string([]byte{byte(a), byte(a >> 8), byte(a >> 16), byte(a >> 24)})
}

// TestPrivateRegionsBelowSharedBase is the regression test for the
// node<<14 packing bug: at 1024 nodes the top nodes' private regions
// crossed SharedBase. Every private address must stay strictly below
// SharedBase at every supported node count.
func TestPrivateRegionsBelowSharedBase(t *testing.T) {
	app, _ := ByName("ocean", 0.01) // PrivateLines 512, the suite maximum
	for _, nodes := range []int{64, 256, 1024} {
		for _, node := range []int{0, nodes / 2, nodes - 1} {
			s := NewStream(app, node, nodes, 1)
			for j := 0; j < app.PrivateLines; j++ {
				if a := s.privateAddr(j); a >= SharedBase || a < PrivateBase {
					t.Fatalf("nodes=%d node=%d line=%d: private address %#x outside [%#x,%#x)",
						nodes, node, j, uint64(a), uint64(PrivateBase), uint64(SharedBase))
				}
			}
		}
	}
}

func TestMigratoryPatternPairsLoadStore(t *testing.T) {
	app, _ := ByName("mp3d", 0.1)
	ops := drain(NewStream(app, 1, 16, 1))
	pairs := 0
	for i := 0; i+1 < len(ops); i++ {
		if ops[i].Kind == cpu.OpLoad && ops[i+1].Kind == cpu.OpStore && ops[i].Addr == ops[i+1].Addr &&
			ops[i].Addr >= SharedBase {
			pairs++
		}
	}
	if pairs < app.Steps/10 {
		t.Fatalf("migratory read-modify-write pairs too rare: %d", pairs)
	}
}

func TestReadFractionRoughlyHonored(t *testing.T) {
	app, _ := ByName("raytrace", 0.2) // ReadFrac 0.82
	loads, stores := 0, 0
	for _, op := range drain(NewStream(app, 0, 16, 1)) {
		switch op.Kind {
		case cpu.OpLoad:
			loads++
		case cpu.OpStore:
			stores++
		}
	}
	frac := float64(loads) / float64(loads+stores)
	if frac < 0.70 || frac > 0.92 {
		t.Fatalf("load fraction %.2f, parameter 0.82", frac)
	}
}

func TestComputeOpsPresent(t *testing.T) {
	app, _ := ByName("water-sp", 0.1)
	saw := 0
	for _, op := range drain(NewStream(app, 0, 16, 1)) {
		if op.Kind == cpu.OpCompute {
			saw++
			if op.Cycles <= 0 {
				t.Fatal("compute ops need positive duration")
			}
		}
	}
	if saw == 0 {
		t.Fatal("no compute ops emitted")
	}
}

// TestStreamNextSteadyStateZeroAllocs: Next consumes its look-ahead queue
// by index and refills the same array, so once the array has held a
// step's longest burst (a critical section, compute, access) the stream
// allocates nothing.
func TestStreamNextSteadyStateZeroAllocs(t *testing.T) {
	app, _ := ByName("barnes", 1) // locks, barriers and compute
	s := NewStream(app, 3, 16, 1)
	next := func() {
		for i := 0; i < 500; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatal("stream ran dry inside the measurement")
			}
		}
	}
	for i := 0; i < 4; i++ { // a dozen critical sections in
		next()
	}
	if allocs := testing.AllocsPerRun(20, next); allocs != 0 {
		t.Fatalf("Next allocates %.2f objects per 500 ops at steady state, want 0", allocs)
	}
}
