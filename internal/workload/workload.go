// Package workload generates the per-thread operation streams standing in
// for the paper's application suite (SPLASH2 plus em3d, ilink, jacobi,
// mp3d, shallow, tsp). Each application is a parameter point controlling
// compute density, working-set size, sharing pattern, read/write mix, and
// synchronization intensity, calibrated to the published characterization
// of the original programs; the substitution is recorded in DESIGN.md.
package workload

import (
	"fmt"
	"strconv"

	"fsoi/internal/cache"
	"fsoi/internal/cpu"
	"fsoi/internal/sim"
)

// Address-space layout (line-granular). Private lines interleave so each
// node's private data is homed at that node; shared lines stripe across
// all homes.
const (
	PrivateBase cache.LineAddr = 1 << 20
	SharedBase  cache.LineAddr = 1 << 24
	// privateStrideBits sizes each thread's private region: 1024 lines,
	// comfortably above the suite's largest PrivateLines (512). The full
	// span PrivateBase + nodes<<privateStrideBits stays at or below
	// SharedBase for up to MaxNodes nodes; NewStream asserts both bounds
	// so a layout regression fails loudly instead of silently turning
	// private misses into phantom coherence traffic.
	privateStrideBits = 10
	// MaxNodes is the most nodes the layout holds (15360 regions).
	MaxNodes = int(SharedBase-PrivateBase) >> privateStrideBits
)

// MaxScale is the largest scale Suite takes. The longest apps take
// 20,000 steps a thread at scale 1 and a step costs at least a cycle,
// so past it their threads need more than system.Default's 40M
// MaxCycles and no run can finish; far past it a step count wraps.
const MaxScale = 2000

// Pattern selects the sharing behaviour of an application.
type Pattern int

// Sharing patterns.
const (
	// PatternUniform spreads shared accesses over the whole shared
	// region.
	PatternUniform Pattern = iota
	// PatternMigratory does read-modify-write on shared lines that move
	// from node to node (mp3d-style).
	PatternMigratory
	// PatternProducerConsumer reads mostly the neighbour's partition and
	// writes its own (em3d-style).
	PatternProducerConsumer
	// PatternNeighbor touches its own and adjacent partitions
	// (jacobi/ocean/shallow-style grids).
	PatternNeighbor
	// PatternAllToAll rotates the target partition phase by phase
	// (fft/radix transposes).
	PatternAllToAll
	// PatternReadShared reads a widely shared structure and rarely
	// writes it (raytrace/ilink-style).
	PatternReadShared
)

// App parameterizes one application.
type App struct {
	Name         string
	Pattern      Pattern
	Steps        int     // memory operations per thread
	ComputeMean  int     // mean compute cycles between memory operations
	ReadFrac     float64 // fraction of accesses that are loads
	SharedFrac   float64 // fraction of accesses to the shared region
	PrivateLines int     // private working set per thread, lines
	SharedLines  int     // shared region size, lines (global)
	Locks        int     // distinct locks (0 disables locking)
	LockEvery    int     // steps per critical section
	BarrierEvery int     // steps per global barrier (0 disables)
	Zipf         float64 // skew of shared accesses (0 = uniform)
	// HotFrac of private accesses hit a small L1-resident hot set; the
	// remainder walk the full private working set. This reproduces the
	// paper's L1 scaling that targets realistic (≈5%) miss rates.
	HotFrac  float64
	HotLines int
}

// Suite returns the sixteen evaluation applications. Steps scale with
// the `scale` factor so tests and benchmarks can run shortened versions
// (scale 1.0 is the full experiment length).
func Suite(scale float64) []App {
	s := func(n int) int {
		v := int(float64(n) * scale)
		if v < 64 {
			v = 64
		}
		return v
	}
	return []App{
		{Name: "barnes", Pattern: PatternUniform, Steps: s(20000), ComputeMean: 4, ReadFrac: 0.72, SharedFrac: 0.38, PrivateLines: 448, SharedLines: 3072, Locks: 64, LockEvery: 160, BarrierEvery: 5000, Zipf: 0.6},
		{Name: "cholesky", Pattern: PatternUniform, Steps: s(18000), ComputeMean: 5, ReadFrac: 0.70, SharedFrac: 0.32, PrivateLines: 512, SharedLines: 3072, Locks: 32, LockEvery: 220, BarrierEvery: 0, Zipf: 0.5},
		{Name: "fmm", Pattern: PatternNeighbor, Steps: s(20000), ComputeMean: 6, ReadFrac: 0.74, SharedFrac: 0.30, PrivateLines: 448, SharedLines: 3072, Locks: 32, LockEvery: 300, BarrierEvery: 6000},
		{Name: "fft", Pattern: PatternAllToAll, Steps: s(16000), ComputeMean: 3, ReadFrac: 0.64, SharedFrac: 0.50, PrivateLines: 384, SharedLines: 4096, BarrierEvery: 2500},
		{Name: "lu", Pattern: PatternUniform, Steps: s(18000), ComputeMean: 4, ReadFrac: 0.68, SharedFrac: 0.35, PrivateLines: 448, SharedLines: 3072, BarrierEvery: 1800, Zipf: 0.4},
		{Name: "ocean", Pattern: PatternNeighbor, Steps: s(20000), ComputeMean: 3, ReadFrac: 0.66, SharedFrac: 0.45, PrivateLines: 512, SharedLines: 4096, BarrierEvery: 1600},
		{Name: "radiosity", Pattern: PatternUniform, Steps: s(18000), ComputeMean: 4, ReadFrac: 0.71, SharedFrac: 0.35, PrivateLines: 448, SharedLines: 3072, Locks: 128, LockEvery: 120, BarrierEvery: 0, Zipf: 0.7},
		{Name: "radix", Pattern: PatternAllToAll, Steps: s(16000), ComputeMean: 2, ReadFrac: 0.55, SharedFrac: 0.55, PrivateLines: 384, SharedLines: 4096, BarrierEvery: 2200},
		{Name: "raytrace", Pattern: PatternReadShared, Steps: s(20000), ComputeMean: 5, ReadFrac: 0.82, SharedFrac: 0.42, PrivateLines: 448, SharedLines: 4096, Locks: 64, LockEvery: 140, Zipf: 0.8},
		{Name: "water-sp", Pattern: PatternNeighbor, Steps: s(18000), ComputeMean: 6, ReadFrac: 0.73, SharedFrac: 0.28, PrivateLines: 512, SharedLines: 2048, Locks: 32, LockEvery: 260, BarrierEvery: 4500},
		{Name: "em3d", Pattern: PatternProducerConsumer, Steps: s(18000), ComputeMean: 3, ReadFrac: 0.70, SharedFrac: 0.55, PrivateLines: 384, SharedLines: 4096, BarrierEvery: 3000},
		{Name: "ilink", Pattern: PatternReadShared, Steps: s(18000), ComputeMean: 4, ReadFrac: 0.80, SharedFrac: 0.40, PrivateLines: 448, SharedLines: 4096, Locks: 16, LockEvery: 200, Zipf: 0.7},
		{Name: "jacobi", Pattern: PatternNeighbor, Steps: s(20000), ComputeMean: 3, ReadFrac: 0.67, SharedFrac: 0.42, PrivateLines: 512, SharedLines: 4096, BarrierEvery: 2000},
		{Name: "mp3d", Pattern: PatternMigratory, Steps: s(16000), ComputeMean: 2, ReadFrac: 0.55, SharedFrac: 0.58, PrivateLines: 384, SharedLines: 3072, BarrierEvery: 4000},
		{Name: "shallow", Pattern: PatternNeighbor, Steps: s(18000), ComputeMean: 4, ReadFrac: 0.68, SharedFrac: 0.40, PrivateLines: 512, SharedLines: 3072, BarrierEvery: 2400},
		{Name: "tsp", Pattern: PatternUniform, Steps: s(18000), ComputeMean: 6, ReadFrac: 0.75, SharedFrac: 0.25, PrivateLines: 448, SharedLines: 2048, Locks: 8, LockEvery: 180, Zipf: 0.9},
	}
}

// ByName finds an application in the suite.
func ByName(name string, scale float64) (App, bool) {
	for _, a := range Suite(scale) {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// Stream generates one thread's operations deterministically. Its
// generators and its Zipf sampler live inside it, so a stream is one
// allocation, and none when NewStreams is given the one it replaces.
type Stream struct {
	app   App
	node  int
	nodes int
	rng   *sim.RNG // &rngs[0]
	zipf  *sim.Zipf
	step  int
	queue []cpu.Op // ops emitted ahead (critical sections); refilled only when consumed
	head  int      // next unconsumed op in queue

	rngs    [2]sim.RNG // the thread's generator and its Zipf sampler's
	sampler sim.Zipf   // *zipf when the app is skewed
	// table is the Zipf table of this stream's run: the app's, or, for an
	// app without skew, the one the streams it replaced held, kept for
	// the streams that replace it.
	table *sim.ZipfTable
}

// NewStream builds the operation stream for thread `node` of `nodes`.
// The per-node RNG stream is derived from the full decimal node index:
// deriving it from a folded byte (the pre-PR-10 `node%64` rune) made
// nodes 64 apart draw byte-identical operation streams at 256/1024
// nodes. The fix changes RNG stream genealogy, so every simulated
// metric shifts relative to pre-fix runs; determinism is still checked
// run-against-run (see system.TestCrossRunDeterminismByteIdentical).
func NewStream(app App, node, nodes int, seed uint64) *Stream {
	return newStream(app, node, nodes, seed, zipfTable(app, nil), nil)
}

// NewStreams builds the streams of all `nodes` threads of one run. Each
// is what NewStream returns for its node; the one thing they share is
// the application's Zipf table, read-only, which is the same for every
// node and costs SharedLines math.Pow calls to build. Given the streams
// of a finished run (donor), no longer read by anyone, it rebuilds those
// in place, node by node, and builds the table in the donors' (see
// sim.NewZipfTable).
func NewStreams(app App, nodes int, seed uint64, donor ...*Stream) []*Stream {
	var spent *sim.ZipfTable
	if len(donor) > 0 {
		spent = donor[0].table
	}
	table := spent
	if app.Zipf > 0 {
		table = zipfTable(app, spent)
	}
	streams := donor // node's donor is read before its slot is written
	if len(donor) != nodes {
		streams = make([]*Stream, nodes)
	}
	for node := range streams {
		var d *Stream
		if node < len(donor) {
			d = donor[node]
		}
		streams[node] = newStream(app, node, nodes, seed, table, d)
	}
	return streams
}

// zipfTable returns the table behind the app's skewed shared accesses,
// nil for an app without skew.
func zipfTable(app App, donor *sim.ZipfTable) *sim.ZipfTable {
	if app.Zipf > 0 {
		return sim.NewZipfTable(app.SharedLines, app.Zipf, donor)
	}
	return nil
}

// newStream builds one thread's stream, in the donor's storage when there
// is one. A skewed app samples the table, which the stream otherwise only
// carries.
func newStream(app App, node, nodes int, seed uint64, table *sim.ZipfTable, donor *Stream) *Stream {
	assertLayout(app, node, nodes)
	s := donor
	if s == nil {
		s = &Stream{}
	}
	*s = Stream{app: app, node: node, nodes: nodes, queue: s.queue[:0], table: table}
	// Each stream is derived from the one before it, in place.
	rng := sim.NewRNG(seed, &s.rngs[0])
	rng.NewStream(app.Name, rng).NewStream(strconv.Itoa(node), rng)
	s.rng = rng
	if app.Zipf > 0 {
		s.zipf = table.Sampler(rng.NewStream("zipf", &s.rngs[1]), &s.sampler)
	}
	return s
}

// assertLayout panics when the address-space layout cannot hold this
// configuration: the per-thread private regions must fit their stride
// and the last node's region must stay strictly below SharedBase.
func assertLayout(app App, node, nodes int) {
	if app.PrivateLines > 1<<privateStrideBits {
		panic(fmt.Sprintf("workload: %s PrivateLines %d exceeds the %d-line private stride",
			app.Name, app.PrivateLines, 1<<privateStrideBits))
	}
	if top := PrivateBase + cache.LineAddr(nodes)<<privateStrideBits; top > SharedBase {
		panic(fmt.Sprintf("workload: %d nodes overflow the private region (top %#x > SharedBase %#x)",
			nodes, uint64(top), uint64(SharedBase)))
	}
	if node < 0 || node >= nodes {
		panic(fmt.Sprintf("workload: node %d out of range [0,%d)", node, nodes))
	}
}

// privateAddr maps private line j of this node into a contiguous
// per-thread region. The distributed L2 is address-interleaved, so even
// private data is homed across the whole chip — every L1 miss crosses
// the interconnect, as in the paper's system.
func (s *Stream) privateAddr(j int) cache.LineAddr {
	return PrivateBase + cache.LineAddr(s.node)<<privateStrideBits + cache.LineAddr(j)
}

// sharedAddr picks a shared line per the application's pattern.
func (s *Stream) sharedAddr() cache.LineAddr {
	n := s.app.SharedLines
	part := n / s.nodes
	if part == 0 {
		part = 1
	}
	// Shared accesses reuse a small drifting window of the partition
	// (temporal locality captured by the L1), with a tail of scattered
	// accesses. Sharing arises where windows of different threads
	// overlap the same partition.
	const window = 48
	const driftEvery = 384
	pick := func(partition int) cache.LineAddr {
		off := s.rng.Intn(part)
		if s.rng.Bool(0.85) && part > window {
			base := (s.step / driftEvery * window) % (part - window)
			off = base + s.rng.Intn(window)
		}
		return SharedBase + cache.LineAddr((partition%s.nodes)*part+off)
	}
	switch s.app.Pattern {
	case PatternProducerConsumer:
		if s.rng.Bool(0.7) {
			return pick(s.node + 1)
		}
		return pick(s.node)
	case PatternNeighbor:
		switch s.rng.Intn(4) {
		case 0:
			return pick(s.node + 1)
		case 1:
			return pick(s.node + s.nodes - 1)
		default:
			return pick(s.node)
		}
	case PatternAllToAll:
		phase := s.step / 512
		return pick(s.node + phase)
	default:
		if s.zipf != nil {
			return SharedBase + cache.LineAddr(s.zipf.Next())
		}
		return SharedBase + cache.LineAddr(s.rng.Intn(n))
	}
}

// Next implements cpu.Stream.
func (s *Stream) Next() (cpu.Op, bool) {
	if s.head < len(s.queue) {
		op := s.queue[s.head]
		s.head++
		return op, true
	}
	if s.step >= s.app.Steps {
		return cpu.Op{}, false
	}
	s.step++
	s.queue = s.queue[:0] // every op was consumed: the array is reused
	// Barriers fire at identical step counts on every thread.
	if s.app.BarrierEvery > 0 && s.step%s.app.BarrierEvery == 0 {
		s.push(cpu.Op{Kind: cpu.OpBarrier, ID: 0})
	}
	// Critical sections: acquire, a few accesses to lock-protected
	// shared data, release.
	if s.app.Locks > 0 && s.app.LockEvery > 0 && s.step%s.app.LockEvery == 0 {
		id := s.rng.Intn(s.app.Locks)
		s.push(cpu.Op{Kind: cpu.OpLockAcquire, ID: id})
		prot := SharedBase + cache.LineAddr(s.app.SharedLines+id)
		s.push(cpu.Op{Kind: cpu.OpLoad, Addr: prot})
		s.push(cpu.Op{Kind: cpu.OpStore, Addr: prot})
		s.push(cpu.Op{Kind: cpu.OpLockRelease, ID: id})
	}
	// The regular compute + access pair.
	if s.app.ComputeMean > 0 {
		s.push(cpu.Op{Kind: cpu.OpCompute, Cycles: 1 + int(s.rng.Exp(float64(s.app.ComputeMean)))})
	}
	shared := s.rng.Bool(s.app.SharedFrac)
	var addr cache.LineAddr
	if shared {
		addr = s.sharedAddr()
	} else {
		hot := s.app.HotLines
		if hot <= 0 {
			hot = 72
		}
		hf := s.app.HotFrac
		if hf <= 0 {
			hf = 0.78
		}
		if s.rng.Bool(hf) && hot < s.app.PrivateLines {
			addr = s.privateAddr(s.rng.Intn(hot))
		} else {
			addr = s.privateAddr(s.rng.Intn(s.app.PrivateLines))
		}
	}
	if s.app.Pattern == PatternMigratory && shared {
		// Read-modify-write migration.
		s.push(cpu.Op{Kind: cpu.OpLoad, Addr: addr})
		s.push(cpu.Op{Kind: cpu.OpStore, Addr: addr})
	} else if s.rng.Bool(s.app.ReadFrac) {
		s.push(cpu.Op{Kind: cpu.OpLoad, Addr: addr})
	} else {
		s.push(cpu.Op{Kind: cpu.OpStore, Addr: addr})
	}
	s.head = 1
	return s.queue[0], true
}

func (s *Stream) push(op cpu.Op) { s.queue = append(s.queue, op) }
