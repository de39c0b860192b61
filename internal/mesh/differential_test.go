package mesh

import (
	"fmt"
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// arrival is what a run shows of one packet.
type arrival struct {
	id               uint64
	queuing, network int64
	at               sim.Cycle
}

// traffic describes one seeded differential run.
type traffic struct {
	seed    uint64
	cfg     Config
	hotspot bool    // half of all packets go to node 0
	rate    float64 // per-node injection probability per cycle
	cycles  int
}

// sender is what drive needs of the mesh and of its reference model.
type sender interface {
	Send(*noc.Packet) bool
	SetDelivery(noc.DeliveryFunc)
}

// drive offers net the packet sequence tr's seed determines, runs until
// the network has drained, and returns the arrivals in delivery order.
// each runs after every cycle. net must be ticked by engine.
func (tr traffic) drive(t *testing.T, engine *sim.Engine, net sender, each func()) []arrival {
	t.Helper()
	var got []arrival
	net.SetDelivery(func(p *noc.Packet, now sim.Cycle) {
		got = append(got, arrival{p.ID, p.QueuingDelay, p.NetworkDelay, now})
	})
	rng := sim.NewRNG(tr.seed)
	nodes := tr.cfg.Dim * tr.cfg.Dim
	sent, id := 0, uint64(0)
	for cyc := 0; cyc < tr.cycles; cyc++ {
		engine.Run(1)
		each()
		for node := 0; node < nodes; node++ {
			if !rng.Bool(tr.rate) {
				continue
			}
			dst := rng.Intn(nodes)
			if tr.hotspot && rng.Bool(0.5) {
				dst = 0
			}
			typ := noc.Meta
			if rng.Bool(0.4) {
				typ = noc.Data
			}
			id++
			if net.Send(&noc.Packet{ID: id, Src: node, Dst: dst, Type: typ}) {
				sent++
			}
		}
	}
	for i := 0; i < 100000 && len(got) < sent; i++ {
		engine.Run(1)
		each()
	}
	if len(got) != sent || sent == 0 {
		t.Fatalf("delivered %d of %d packets", len(got), sent)
	}
	return got
}

// matchReference runs tr on the mesh and on the full-scan reference
// model and requires the same per-packet delays and delivery cycles in
// the same order, the same allocator state at the end, and as many
// forwards as the reference scheduled events (one per flit-hop, its
// only events) with no event of the mesh's own.
func (tr traffic) matchReference(t *testing.T) {
	t.Helper()
	refEngine := sim.NewEngine()
	ref := newRefNetwork(tr.cfg, refEngine)
	refEngine.Register(sim.TickFunc(ref.Tick))
	want := tr.drive(t, refEngine, ref, func() {})

	engine := sim.NewEngine()
	n := New(tr.cfg, engine)
	engine.Register(sim.TickFunc(n.Tick))
	transfers := uint64(0)
	got := tr.drive(t, engine, n, func() {
		// What the cycle forwarded is what arrives a full hop later.
		transfers += uint64(n.checkInvariants(t, engine.Now()-1))
	})

	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, reference delivered %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d: got %+v, reference %+v", i, got[i], want[i])
		}
	}
	if engine.Now() != refEngine.Now() || transfers != refEngine.EventsFired() || engine.EventsFired() != 0 {
		t.Fatalf("drained at cycle %d after %d forwards and %d events, reference at %d after %d events",
			engine.Now(), transfers, engine.EventsFired(), refEngine.Now(), refEngine.EventsFired())
	}
	for i, r := range n.routers {
		rr := ref.routers[i]
		for p := range r.outputs {
			out, rout := &r.outputs[p], rr.outputs[p]
			if out.lastVC != rout.lastVC || out.lastInput != rout.lastInput {
				t.Fatalf("router %d out %d: round-robin pointers (%d, %d), reference (%d, %d)",
					i, p, out.lastVC, out.lastInput, rout.lastVC, rout.lastInput)
			}
			for v, c := range rout.creditsPerVC {
				if out.credits[v] != c || (out.held>>v&1 == 1) != rout.vcHeld[v] {
					t.Fatalf("router %d out %d vc %d: credits %d held %v, reference %d %v",
						i, p, v, out.credits[v], out.held>>v&1 == 1, c, rout.vcHeld[v])
				}
			}
		}
	}
}

func TestMatchesReferenceModel(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, dim := range []int{4, 8} {
		for _, rc := range []int{1, 2, 4} {
			for _, hotspot := range []bool{false, true} {
				for _, seed := range seeds {
					tr := traffic{seed: seed, cfg: PaperMesh(dim), hotspot: hotspot, rate: 0.06, cycles: 600}
					tr.cfg.RouterCycles = rc
					if hotspot {
						tr.rate = 0.03 // node 0 ejects one flit per cycle
					}
					t.Run(fmt.Sprintf("%dx%d/rc%d/hotspot=%v/seed%d", dim, dim, rc, hotspot, seed), tr.matchReference)
				}
			}
		}
	}
}

// TestMatchesReferenceAcrossBusyWords covers what no 8x8 run can: with
// more than 64 routers each calendar bucket spans two words, and a
// forward from a router in the first word into the second must land in
// a later bucket, not in the one being walked (its flit is still on the
// link), a zero-stage pipeline and zero-cycle links included.
func TestMatchesReferenceAcrossBusyWords(t *testing.T) {
	for _, tc := range []struct{ rc, link int }{{0, 0}, {0, 1}, {4, 1}, {1, 3}} {
		tr := traffic{seed: 4, cfg: PaperMesh(9), rate: 0.05, cycles: 300}
		tr.cfg.RouterCycles, tr.cfg.LinkCycles = tc.rc, tc.link
		t.Run(fmt.Sprintf("rc%d/link%d", tc.rc, tc.link), tr.matchReference)
	}
}

// FuzzMatchesReferenceModel lets the fuzzer pick the seed, the shape of
// the mesh and the load; `go test` runs the corpus below.
func FuzzMatchesReferenceModel(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(4), uint8(4), uint8(12), uint8(1), uint8(75), uint8(10), false)
	f.Add(uint64(7), uint8(8), uint8(2), uint8(2), uint8(3), uint8(2), uint8(42), uint8(40), true)
	f.Add(uint64(9), uint8(3), uint8(1), uint8(12), uint8(1), uint8(3), uint8(75), uint8(90), false)
	f.Add(uint64(11), uint8(5), uint8(0), uint8(1), uint8(5), uint8(0), uint8(25), uint8(25), true)
	f.Add(uint64(13), uint8(4), uint8(60), uint8(4), uint8(12), uint8(3), uint8(75), uint8(60), true) // a 64-slot calendar, full
	f.Add(uint64(17), uint8(6), uint8(64), uint8(2), uint8(4), uint8(1), uint8(60), uint8(30), false) // MaxRouterCycles
	f.Fuzz(func(t *testing.T, seed uint64, dim, routerCycles, vcs, depth, linkCycles, bwPct, ratePct uint8, hotspot bool) {
		cfg := PaperMesh(2 + int(dim)%7)
		cfg.RouterCycles = int(routerCycles) % (MaxRouterCycles + 1)
		cfg.VCs = 1 + int(vcs)%(maskBits/numPorts)
		cfg.BufferFlits = 1 + int(depth)%12
		cfg.LinkCycles = int(linkCycles) % 4
		cfg.BandwidthFrac = float64(25+bwPct%76) / 100 // 0.25 .. 1.00, the last unthrottled
		tr := traffic{seed: seed, cfg: cfg, hotspot: hotspot, rate: float64(1+ratePct%100) / 200, cycles: 300}
		tr.matchReference(t)
	})
}
