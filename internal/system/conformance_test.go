package system

import (
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/noc/noctest"
	"fsoi/internal/sim"
)

// builder returns a noctest builder for the network New would build for
// Default(nodes, kind).
func builder(t *testing.T, kind NetworkKind, nodes int) func(*sim.Engine, *sim.RNG) noc.Network {
	t.Helper()
	n, ok := lookup(kind)
	if !ok {
		t.Fatalf("no interconnect %q", kind)
	}
	cfg := Default(nodes, kind)
	return func(engine *sim.Engine, rng *sim.RNG) noc.Network { return n.build(cfg, engine, rng, nil) }
}

// ordered lists the networks whose design delivers each (src, dst)
// pair's packets in send order, which the conformance harness then
// checks.
//
//   - The ideal networks serialize each source's FIFO queue one packet
//     at a time, and a pair's network latency is fixed, so a later
//     packet of the pair starts after the earlier one has serialized and
//     arrives after it.
//   - The crossbars queue each pair's packets on one FIFO channel (per
//     destination, per pair or per source) with a fixed flight time.
//
// FSOI's collision backoff can reorder a source's packets (the system
// layer restores ordering per cache line), and the mesh's per-hop VC
// allocation can let a later packet overtake an earlier one.
var ordered = map[NetworkKind]bool{
	NetL0: true, NetLr1: true, NetLr2: true,
	NetCorona: true, "matrix": true, "snake": true,
}

// TestNetworkConformance runs the shared noc.Network conformance harness
// over every interconnect at 16 nodes.
func TestNetworkConformance(t *testing.T) {
	for _, n := range Interconnects {
		noctest.Harness{
			Name:    string(n.Kind),
			Build:   builder(t, n.Kind, 16),
			Nodes:   16,
			Ordered: ordered[n.Kind],
			Seed:    42,
		}.Run(t)
	}
}

// TestSharded256Conformance runs the paper's FSOI design and the
// electrical mesh at 256 nodes: delivery must be exactly-once and the
// transcript replay-identical — the contract that makes 256/1024-node
// frontier runs trustworthy.
func TestSharded256Conformance(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node conformance runs only without -short")
	}
	noctest.Harness{
		Name:        "fsoi-256",
		Build:       builder(t, NetFSOI, 256),
		Nodes:       256,
		Seed:        42,
		DrainCycles: 30000,
	}.Run(t)
	noctest.Harness{
		Name:  "mesh-256",
		Build: builder(t, NetMesh, 256),
		Nodes: 256,
		Seed:  42,
		// 256 routers tick every cycle, so the drain bound is the whole
		// cost of the run; injections stop by cycle 400 and the longest
		// 16x16 dimension-order route is well under 1k cycles.
		DrainCycles: 5000,
	}.Run(t)
}

// TestTopologiesAreDistinct drives the WDM crossbars with one burst and
// checks their arbitration models actually diverge: the matrix is
// contention-free and the snake serializes per source.
func TestTopologiesAreDistinct(t *testing.T) {
	run := func(kind NetworkKind) (maxLat int64) {
		engine := sim.NewEngine()
		n := builder(t, kind, 64)(engine, sim.NewRNG(1))
		var lats []int64
		n.SetDelivery(func(p *noc.Packet, now sim.Cycle) { lats = append(lats, p.TotalLatency()) })
		engine.Register(sim.TickFunc(n.Tick))
		// One source sprays six destinations back to back.
		for dst := 1; dst <= 6; dst++ {
			if !n.Send(&noc.Packet{ID: uint64(dst), Src: 0, Dst: dst, Type: noc.Data}) {
				t.Fatalf("%s rejected packet %d", kind, dst)
			}
		}
		engine.Run(500)
		if len(lats) != 6 {
			t.Fatalf("%s delivered %d of 6", kind, len(lats))
		}
		for _, l := range lats {
			maxLat = max(maxLat, l)
		}
		return maxLat
	}
	matrix, snake := run("matrix"), run("snake")
	if matrix != 6 {
		t.Fatalf("matrix burst max latency %d, want contention-free 6", matrix)
	}
	if snake < 25 {
		t.Fatalf("snake burst max latency %d, want source-serialized >= 25", snake)
	}
}
