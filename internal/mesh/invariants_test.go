package mesh

import (
	"math"
	"strings"
	"testing"

	"fsoi/internal/sim"
)

// checkInvariants verifies, between cycle now and the next, that the
// occupancy state the tick relies on agrees with the FIFOs, that credits
// account for every buffer slot, that no flit has been lost or
// duplicated, that the link queue is in the order Tick drains it, and
// that no router sleeps past a flit it could move.
func (n *Network) checkInvariants(t testing.TB, now sim.Cycle) {
	t.Helper()
	onLink := n.links.n
	for i, last := 0, now; i < onLink; i++ {
		at := n.links.at(i).arrival
		if at < last || at <= now || at > now+n.hop {
			t.Fatalf("link queue entry %d of %d arrives at cycle %d, the one before at %d: want non-decreasing within (%d, %d]",
				i, onLink, at, last, now, now+n.hop)
		}
		last = at
	}
	vcs, depth := n.cfg.VCs, n.cfg.BufferFlits
	buffered, linked := 0, 0
	for _, r := range n.routers {
		sum := 0
		var want [numPorts]uint64
		holders := make([]int, numPorts*vcs) // input VCs holding (outPort, outVC)
		for i := range r.inputs {
			in := &r.inputs[i]
			sum += in.fifo.n
			if got := r.occupied>>i&1 == 1; got != (in.fifo.n > 0) {
				t.Fatalf("router %d vc %d: occupied bit %v with %d flits buffered", r.id, i, got, in.fifo.n)
			}
			if in.outPort >= 0 {
				want[in.outPort] |= 1 << i
			}
			if in.outVC >= 0 {
				holders[in.outPort*vcs+in.outVC]++
			}
		}
		if want != r.want {
			t.Fatalf("router %d: want masks %x, VC routes say %x", r.id, r.want, want)
		}
		if r.buffered != sum {
			t.Fatalf("router %d: buffered = %d, FIFOs hold %d", r.id, r.buffered, sum)
		}
		if got := n.busyRouters.has(r.id); got != (sum > 0) {
			t.Fatalf("router %d: busy bit %v with %d flits buffered", r.id, got, sum)
		}
		if sum > 0 {
			// Wake honesty: the router ticks again no later than the
			// first cycle a front flit is out of the pipeline.
			due := sim.Cycle(math.MaxInt64)
			for i := range r.inputs {
				if in := &r.inputs[i]; in.fifo.n > 0 {
					due = min(due, in.fifo.front().readyAt)
				}
			}
			if due = max(due, now+1); r.wake > due {
				t.Fatalf("router %d: sleeps until cycle %d with a front flit ready at %d", r.id, r.wake, due)
			}
		}
		buffered += sum
		for v := 0; v < vcs; v++ {
			if got := n.vcCredits[r.id][v] + r.inputs[portLocal*vcs+v].fifo.n; got != depth {
				t.Fatalf("router %d local vc %d: credits + occupancy = %d, want %d", r.id, v, got, depth)
			}
		}
		for p := portLocal + 1; p < numPorts; p++ {
			out := &r.outputs[p]
			for v := 0; v < vcs; v++ {
				if held := int(out.held >> v & 1); held != holders[p*vcs+v] {
					t.Fatalf("router %d out %d vc %d: held = %d but %d input VCs hold it", r.id, p, v, held, holders[p*vcs+v])
				}
				down := 0
				if next := r.neighbor[p]; next != nil {
					down = next.inputs[r.reverse[p]*vcs+v].fifo.n
				}
				flying := depth - out.credits[v] - down
				if flying < 0 || flying > int(n.hop) {
					t.Fatalf("router %d out %d vc %d: %d credits + %d buffered downstream leave %d on a %d-cycle link",
						r.id, p, v, out.credits[v], down, flying, n.hop)
				}
				linked += flying
			}
		}
	}
	if linked != onLink {
		t.Fatalf("credits imply %d flits on links, the link queue holds %d", linked, onLink)
	}
	if n.flitsIn != n.flitsOut+int64(buffered+onLink) {
		t.Fatalf("flits: %d injected != %d ejected + %d buffered + %d on links", n.flitsIn, n.flitsOut, buffered, onLink)
	}
	for node := range n.queues {
		work := n.queues[node].n > 0 || n.inflight[node].pkt != nil ||
			(n.cfg.BandwidthFrac < 1 && n.bwTokens[node] < 1)
		if work && !n.busyNICs.has(node) {
			t.Fatalf("node %d has injection work but is not in the busy set", node)
		}
	}
}

// stress drives tr through n until it drains (drive fails the test if a
// packet is lost), checking the invariants after every cycle.
func stress(t *testing.T, n *Network, engine *sim.Engine, tr traffic) {
	t.Helper()
	tr.drive(t, engine, n, func() { n.checkInvariants(t, engine.Now()-1) })
}

// at returns the i-th oldest element.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

func (b bitset) has(i int) bool { return b[i>>6]>>(i&63)&1 == 1 }

func TestInvariantsHoldUnderStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
		rate float64
	}{
		{"saturated", func(*Config) {}, 0.5},
		{"shallow-buffers", func(c *Config) { c.BufferFlits, c.VCs = 2, 2 }, 0.2},
		{"two-cycle-links", func(c *Config) { c.LinkCycles = 2 }, 0.1},
		{"zero-cycle-links", func(c *Config) { c.LinkCycles, c.RouterCycles = 0, 0 }, 0.1},
		{"throttled", func(c *Config) { c.BandwidthFrac = 0.67 }, 0.1},
		{"widest-mask", func(c *Config) { c.VCs = maskBits / numPorts }, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PaperMesh(4)
			tc.cfg(&cfg)
			n, engine, _ := testMesh(t, cfg)
			stress(t, n, engine, traffic{seed: 5, cfg: cfg, rate: tc.rate, cycles: 1500})
			for _, r := range n.routers {
				if r.occupied != 0 {
					t.Fatalf("router %d still occupied after the drain", r.id)
				}
			}
		})
	}
}

func TestNewRejectsVCsWiderThanMask(t *testing.T) {
	cfg := PaperMesh(4)
	cfg.VCs = maskBits/numPorts + 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "occupancy mask") {
			t.Fatalf("New(%d VCs) = %q, want a panic naming the occupancy mask", cfg.VCs, msg)
		}
	}()
	New(cfg, sim.NewEngine())
}
