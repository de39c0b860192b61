// Package noctest is the shared conformance harness for noc.Network
// implementations. Every interconnect in the repository — the FSOI
// core, the electrical mesh baselines, and each member of the optnet
// topology zoo — must uphold the same transport contract the coherence
// substrate assumes; this harness turns that contract into one
// reusable test:
//
//   - exactly-once delivery: every accepted packet is delivered exactly
//     once after the network drains, and none is invented;
//   - latency accounting: LatencyStats matches the delivery transcript
//     (Delivered count, per-packet non-negative latencies);
//   - in-order delivery per (src, dst) pair, for networks that declare
//     it (FSOI's collision backoff may reorder; the system layer
//     restores per-line order above it);
//   - deterministic replay: two runs from the same seed produce
//     identical delivery transcripts, cycle for cycle;
//   - windowed invariance: when Windowed is set, the same run on the
//     windowed parallel engine (shard.Windows) reproduces its own
//     1-worker replay byte for byte at every worker and shard count.
package noctest

import (
	"fmt"
	"sort"
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
	"fsoi/internal/sim/shard"
)

// Harness drives one noc.Network implementation through the
// conformance checks.
type Harness struct {
	// Name labels the subtests.
	Name string
	// Build constructs a fresh network over the engine. The RNG is the
	// run's root; deterministic networks ignore it.
	Build func(engine sim.Scheduler, rng *sim.RNG) noc.Network
	// Nodes is the endpoint count packets are addressed within.
	Nodes int
	// Windowed lists windowed-engine worker counts to replay the run
	// at. The windowed engine executes a conservatively windowed
	// schedule — legally different from the serial one — so its
	// reference is its own 1-worker replay (same engine, no
	// goroutines): every listed worker count, and every shard count in
	// WindowedShards, must reproduce that transcript byte for byte.
	// Requires a network that declares noc.Lookaheader, ticks per node
	// (TickNode), and keeps every event in the touched node's context.
	Windowed []int
	// WindowedShards lists the windowed partitions to replay at; the
	// first entry is the reference partition (default: 4 shards).
	WindowedShards []int
	// Ordered enables the per-(src,dst) in-order check.
	Ordered bool
	// Seed feeds both the network and the traffic pattern.
	Seed uint64
	// Packets is the number of injection attempts (default 400).
	Packets int
	// DrainCycles bounds the run (default 200000).
	DrainCycles sim.Cycle
}

// delivery is one line of the run transcript.
type delivery struct {
	at       sim.Cycle
	id       uint64
	src, dst int
	latency  int64
}

// transcript is the full deterministic outcome of one run.
type transcript struct {
	accepted   []uint64
	deliveries []delivery
	sendOrder  map[[2]int][]uint64 // accepted ids per (src,dst), send order
	delivered  int64               // LatencyStats().Delivered after the run
	totalN     int64               // LatencyStats().Total.N()
}

// run executes one seeded traffic pattern against a fresh network on
// the serial engine.
func (h Harness) run(t *testing.T) transcript {
	t.Helper()
	packets := h.Packets
	if packets == 0 {
		packets = 400
	}
	drain := h.DrainCycles
	if drain == 0 {
		drain = 200000
	}
	engine := sim.NewEngine()
	net := h.Build(engine, sim.NewRNG(h.Seed))
	tr := transcript{sendOrder: map[[2]int][]uint64{}}
	net.SetDelivery(func(p *noc.Packet, now sim.Cycle) {
		tr.deliveries = append(tr.deliveries, delivery{
			at: now, id: p.ID, src: p.Src, dst: p.Dst, latency: p.TotalLatency(),
		})
	})
	engine.Register(sim.TickFunc(net.Tick))

	// The traffic stream is seeded independently of the network's RNG
	// tree so the pattern is identical for every implementation.
	traffic := sim.NewRNG(h.Seed ^ 0xda7a).NewStream("noctest-traffic")
	id := uint64(0)
	// Spread injections over time: a few packets every fourth cycle.
	for burst := 0; burst < packets/4; burst++ {
		at := sim.Cycle(1 + burst*4)
		// Draw the burst's packets now so the RNG consumption order is
		// fixed regardless of how the engine interleaves events.
		pkts := make([]*noc.Packet, 4)
		for i := range pkts {
			src := traffic.Intn(h.Nodes)
			dst := traffic.Intn(h.Nodes - 1)
			if dst >= src {
				dst++ // uniform over dst != src
			}
			typ := noc.Meta
			if traffic.Bool(0.4) {
				typ = noc.Data
			}
			id++
			pkts[i] = &noc.Packet{ID: id, Src: src, Dst: dst, Type: typ}
		}
		engine.At(at, func(now sim.Cycle) {
			for _, p := range pkts {
				if net.Send(p) {
					tr.accepted = append(tr.accepted, p.ID)
					key := [2]int{p.Src, p.Dst}
					tr.sendOrder[key] = append(tr.sendOrder[key], p.ID)
				}
			}
		})
	}
	engine.Run(drain)
	tr.delivered = net.LatencyStats().Delivered
	tr.totalN = net.LatencyStats().Total.N()
	return tr
}

// runWindowed executes the same seeded traffic pattern on the windowed
// parallel engine. Unlike run, every recording structure is owned by
// exactly one node — shards execute concurrently, so a shared append
// would race — and the injection events are scheduled on each source's
// own proxy so Send executes in the node context the engine requires.
func (h Harness) runWindowed(t *testing.T, shards, workers int) transcript {
	t.Helper()
	packets := h.Packets
	if packets == 0 {
		packets = 400
	}
	drain := h.DrainCycles
	if drain == 0 {
		drain = 200000
	}
	eng := shard.NewWindows(shards, workers)
	eng.AssignNodes(h.Nodes)
	defer eng.Close()
	net := h.Build(eng, sim.NewRNG(h.Seed))
	la, ok := net.(noc.Lookaheader)
	if !ok {
		t.Fatal("windowed replay needs the network to declare its lookahead (noc.Lookaheader)")
	}
	eng.SetLookahead(la.Lookahead())
	ticker, ok := net.(interface {
		TickNode(id int, now sim.Cycle)
	})
	if !ok {
		t.Fatal("windowed replay needs per-node ticking (TickNode)")
	}
	for i := 0; i < h.Nodes; i++ {
		id := i
		eng.ForNode(i).Register(sim.TickFunc(func(now sim.Cycle) { ticker.TickNode(id, now) }))
	}

	type sent struct {
		dst int
		id  uint64
	}
	acceptedBy := make([][]sent, h.Nodes)
	deliveredTo := make([][]delivery, h.Nodes)
	net.SetDelivery(func(p *noc.Packet, now sim.Cycle) {
		deliveredTo[p.Dst] = append(deliveredTo[p.Dst], delivery{
			at: now, id: p.ID, src: p.Src, dst: p.Dst, latency: p.TotalLatency(),
		})
	})

	// Same traffic stream, same draw order as the serial run.
	traffic := sim.NewRNG(h.Seed ^ 0xda7a).NewStream("noctest-traffic")
	id := uint64(0)
	for burst := 0; burst < packets/4; burst++ {
		at := sim.Cycle(1 + burst*4)
		for i := 0; i < 4; i++ {
			src := traffic.Intn(h.Nodes)
			dst := traffic.Intn(h.Nodes - 1)
			if dst >= src {
				dst++ // uniform over dst != src
			}
			typ := noc.Meta
			if traffic.Bool(0.4) {
				typ = noc.Data
			}
			id++
			p := &noc.Packet{ID: id, Src: src, Dst: dst, Type: typ}
			eng.ForNode(src).At(at, func(now sim.Cycle) {
				if net.Send(p) {
					acceptedBy[p.Src] = append(acceptedBy[p.Src], sent{p.Dst, p.ID})
				}
			})
		}
	}
	eng.Run(drain)

	// Merge the node-owned records into one transcript. Each node's
	// stream is invariant across worker and shard counts, so a stable
	// sort of their concatenation is too.
	tr := transcript{sendOrder: map[[2]int][]uint64{}}
	for src, list := range acceptedBy {
		for _, s := range list {
			tr.accepted = append(tr.accepted, s.id)
			key := [2]int{src, s.dst}
			tr.sendOrder[key] = append(tr.sendOrder[key], s.id)
		}
	}
	for _, list := range deliveredTo {
		tr.deliveries = append(tr.deliveries, list...)
	}
	sort.SliceStable(tr.deliveries, func(i, j int) bool {
		a, b := tr.deliveries[i], tr.deliveries[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.id < b.id
	})
	tr.delivered = net.LatencyStats().Delivered
	tr.totalN = net.LatencyStats().Total.N()
	return tr
}

// Run executes the conformance suite as subtests of t.
func (h Harness) Run(t *testing.T) {
	t.Helper()
	t.Run(h.Name, func(t *testing.T) {
		first := h.run(t)
		h.checkExactlyOnce(t, first)
		h.checkLatencyAccounting(t, first)
		if h.Ordered {
			h.checkInOrder(t, first)
		}
		h.checkReplay(t, first)
		if len(h.Windowed) > 0 {
			h.checkWindowedInvariance(t)
		}
	})
}

// checkWindowedInvariance runs the windowed suite: a 1-worker windowed
// reference (held to the exactly-once and accounting contracts), then
// byte-identical replays at every listed worker count and partition.
func (h Harness) checkWindowedInvariance(t *testing.T) {
	t.Helper()
	shards := h.WindowedShards
	if len(shards) == 0 {
		shards = []int{4}
	}
	ref := h.runWindowed(t, shards[0], 1)
	h.checkExactlyOnce(t, ref)
	h.checkLatencyAccounting(t, ref)
	for _, workers := range h.Windowed {
		if workers <= 1 {
			continue // the reference itself
		}
		got := h.runWindowed(t, shards[0], workers)
		h.compareTranscripts(t, fmt.Sprintf("windowed %d-worker run", workers), ref, got)
	}
	for _, k := range shards[1:] {
		got := h.runWindowed(t, k, 2)
		h.compareTranscripts(t, fmt.Sprintf("windowed %d-shard run", k), ref, got)
	}
}

// checkExactlyOnce verifies the drain delivered every accepted packet
// exactly once and nothing else.
func (h Harness) checkExactlyOnce(t *testing.T, tr transcript) {
	t.Helper()
	if len(tr.accepted) == 0 {
		t.Fatal("traffic pattern injected nothing; harness misconfigured")
	}
	seen := make(map[uint64]int, len(tr.deliveries))
	for _, d := range tr.deliveries {
		seen[d.id]++
	}
	for _, id := range tr.accepted {
		switch seen[id] {
		case 1:
		case 0:
			t.Fatalf("packet %d accepted but never delivered (%d of %d arrived)",
				id, len(tr.deliveries), len(tr.accepted))
		default:
			t.Fatalf("packet %d delivered %d times", id, seen[id])
		}
	}
	if len(tr.deliveries) != len(tr.accepted) {
		t.Fatalf("delivered %d packets but accepted %d", len(tr.deliveries), len(tr.accepted))
	}
}

// checkLatencyAccounting verifies LatencyStats agrees with the
// transcript.
func (h Harness) checkLatencyAccounting(t *testing.T, tr transcript) {
	t.Helper()
	if tr.delivered != int64(len(tr.deliveries)) {
		t.Fatalf("LatencyStats.Delivered = %d, transcript has %d", tr.delivered, len(tr.deliveries))
	}
	if tr.totalN != int64(len(tr.deliveries)) {
		t.Fatalf("LatencyStats.Total.N() = %d, transcript has %d", tr.totalN, len(tr.deliveries))
	}
	for _, d := range tr.deliveries {
		if d.latency < 0 {
			t.Fatalf("packet %d reports negative latency %d", d.id, d.latency)
		}
	}
}

// checkInOrder verifies per-(src,dst) delivery follows send order.
func (h Harness) checkInOrder(t *testing.T, tr transcript) {
	t.Helper()
	pos := map[[2]int]int{}
	for _, d := range tr.deliveries {
		key := [2]int{d.src, d.dst}
		want := tr.sendOrder[key]
		i := pos[key]
		if i >= len(want) || want[i] != d.id {
			t.Fatalf("pair %d->%d delivered packet %d out of send order (position %d of %v)",
				d.src, d.dst, d.id, i, want)
		}
		pos[key] = i + 1
	}
}

// checkReplay verifies a second run from the same seed reproduces the
// transcript exactly.
func (h Harness) checkReplay(t *testing.T, first transcript) {
	t.Helper()
	second := h.run(t)
	h.compareTranscripts(t, "replay", first, second)
}

// compareTranscripts fails on the first delivery where two transcripts
// of the same traffic pattern diverge.
func (h Harness) compareTranscripts(t *testing.T, label string, first, second transcript) {
	t.Helper()
	if len(first.deliveries) != len(second.deliveries) {
		t.Fatalf("%s delivered %d packets, first run %d", label, len(second.deliveries), len(first.deliveries))
	}
	for i := range first.deliveries {
		if first.deliveries[i] != second.deliveries[i] {
			t.Fatalf("%s diverges at delivery %d:\n first: %s\nsecond: %s",
				label, i, fmtDelivery(first.deliveries[i]), fmtDelivery(second.deliveries[i]))
		}
	}
}

// fmtDelivery renders one transcript line for failure messages.
func fmtDelivery(d delivery) string {
	return fmt.Sprintf("cycle %d id %d %d->%d latency %d", int64(d.at), d.id, d.src, d.dst, d.latency)
}
