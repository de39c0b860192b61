package mesh

import (
	"math"
	"math/bits"
	"strings"
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// checkInvariants verifies, between cycle now and the next, that the
// occupancy state the tick relies on agrees with the FIFOs, that a
// router sits in the wake calendar's bucket for its wake, and in no
// other, iff it buffers a flit, that credits
// account for every buffer slot (a flit still on a link already fills
// its slot downstream), that no flit has been lost or duplicated, that
// every FIFO is in arrival order with no stamp further ahead than a link
// is long, and that no router sleeps past a flit it could move. It
// returns how many flits cycle now forwarded: those still a whole link
// traversal from arriving.
func (n *Network) checkInvariants(t testing.TB, now sim.Cycle) (forwarded int) {
	t.Helper()
	vcs, depth := n.cfg.VCs, n.cfg.BufferFlits
	pipeline := sim.Cycle(n.cfg.RouterCycles)
	buffered := 0
	calendar := make([]uint64, len(n.due)) // the buckets the routers' wakes say
	for _, r := range n.routers {
		sum := 0
		var want [numPorts]uint64
		holders := make([]int, numPorts*vcs) // input VCs holding (outPort, outVC)
		due := sim.Cycle(math.MaxInt64)      // earliest front readyAt
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
			if in.fifo.n > 0 {
				due = min(due, in.fifo.front().readyAt)
			}
			for j, last := 0, sim.Cycle(math.MinInt64); j < in.fifo.n; j++ {
				f := in.fifo.at(j)
				if f.readyAt < last {
					t.Fatalf("router %d vc %d: flit %d of %d ready at cycle %d behind one ready at %d",
						r.id, i, j, in.fifo.n, f.readyAt, last)
				}
				last = f.readyAt
				// A flit is on a link iff it arrives after now.
				switch arrival := f.readyAt - pipeline; {
				case arrival <= now:
				case i/vcs == portLocal || arrival > now+n.hop:
					t.Fatalf("router %d vc %d: flit %d arrives at cycle %d, want within (%d, %d] and never on the local port",
						r.id, i, j, arrival, now, now+n.hop)
				case arrival == now+n.hop:
					forwarded++
				}
			}
		}
		if want != r.want {
			t.Fatalf("router %d: want masks %x, VC routes say %x", r.id, r.want, want)
		}
		if sum > 0 {
			calendar[int(r.wake&n.dueMask)*n.dueWords+r.id>>6] |= 1 << (r.id & 63)
		}
		// Wake honesty: the router ticks again no later than the first
		// cycle a front flit is out of the pipeline. And no sooner: a
		// flit forwarded to it must not get it ticked for nothing.
		if due = max(due, now+1); sum > 0 && r.wake > due {
			t.Fatalf("router %d: sleeps until cycle %d with a front flit ready at %d", r.id, r.wake, due)
		} else if sum > 0 && r.wake < due {
			t.Fatalf("router %d: wakes at cycle %d with no front flit ready before %d", r.id, r.wake, due)
		} else if sum > 0 && r.wake > now+n.dueMask {
			t.Fatalf("router %d: wakes at cycle %d, past the calendar's %d cycles from %d", r.id, r.wake, n.dueMask+1, now)
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
					down = next.inputs[reversePort[p]*vcs+v].fifo.n
				}
				if out.credits[v]+down != depth {
					t.Fatalf("router %d out %d vc %d: %d credits + %d buffered downstream, want %d",
						r.id, p, v, out.credits[v], down, depth)
				}
			}
		}
	}
	for w, want := range calendar {
		if diff := n.due[w] ^ want; diff != 0 {
			id := w%n.dueWords<<6 + bits.TrailingZeros64(diff)
			t.Fatalf("router %d: in calendar bucket %d = %v with %d flits buffered and wake %d",
				id, w/n.dueWords, n.due[w]&diff&-diff != 0, n.routers[id].flits(), n.routers[id].wake)
		}
	}
	if n.flitsIn != n.flitsOut+int64(buffered) {
		t.Fatalf("flits: %d injected != %d ejected + %d buffered", n.flitsIn, n.flitsOut, buffered)
	}
	for node := range n.queues {
		work := n.queues[node].n > 0 || n.inflight[node].pkt != nil ||
			(n.cfg.BandwidthFrac < 1 && n.bwTokens[node] < 1)
		if work && !n.busyNICs.has(node) {
			t.Fatalf("node %d has injection work but is not in the busy set", node)
		}
	}
	return forwarded
}

// stress drives tr through n until it drains (drive fails the test if a
// packet is lost), checking the invariants after every cycle.
func stress(t *testing.T, n *Network, engine *sim.Engine, tr traffic) {
	t.Helper()
	tr.drive(t, engine, n, func() { n.checkInvariants(t, engine.Now()-1) })
}

// flits returns how many flits the router buffers.
func (r *router) flits() (sum int) {
	for i := range r.inputs {
		sum += r.inputs[i].fifo.n
	}
	return sum
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

// TestLocalFlitLowersWakeSetByLinkFlit pins the one case in which a
// later acceptFlit is ready sooner than a flit already buffered: over a
// three-cycle link a forwarded flit is stamped three cycles ahead, and
// a flit injected locally the cycle after beats it out of the pipeline.
func TestLocalFlitLowersWakeSetByLinkFlit(t *testing.T) {
	cfg := PaperMesh(4)
	cfg.LinkCycles = 3
	n, engine, delivered := testMesh(t, cfg)
	n.Send(&noc.Packet{ID: 1, Src: 0, Dst: 2, Type: noc.Meta})
	r := n.routers[1]
	for r.flits() == 0 {
		engine.Run(1)
	}
	linkWake := r.wake // the flit router 0 forwarded is all router 1 holds
	n.Send(&noc.Packet{ID: 2, Src: 1, Dst: 1, Type: noc.Meta})
	engine.Run(1)
	n.checkInvariants(t, engine.Now()-1)
	if r.flits() != 2 || r.wake >= linkWake {
		t.Fatalf("router 1 holds %d flits and wakes at cycle %d, want 2 flits and a wake before the link flit's %d",
			r.flits(), r.wake, linkWake)
	}
	engine.Run(50)
	if len(*delivered) != 2 || (*delivered)[0].ID != 2 {
		t.Fatalf("delivered %d packets, first %+v: want the local packet first of 2", len(*delivered), (*delivered)[0])
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

// TestNewRejectsRouterCyclesOffTheCalendar: the wake calendar is sized
// from RouterCycles, so New refuses a depth it would have to allocate
// without bound for, and a negative one that would stamp a flit ready
// before it arrived.
func TestNewRejectsRouterCyclesOffTheCalendar(t *testing.T) {
	cfg := PaperMesh(4)
	cfg.RouterCycles = MaxRouterCycles
	if n := New(cfg, sim.NewEngine()); len(n.due) != 128*n.dueWords {
		t.Fatalf("a %d-cycle router has %d calendar words, want 128 buckets of %d", MaxRouterCycles, len(n.due), n.dueWords)
	}
	for _, rc := range []int{-1, MaxRouterCycles + 1, 1 << 30} {
		cfg.RouterCycles = rc
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "RouterCycles") {
					t.Errorf("New(RouterCycles %d) = %q, want a panic naming RouterCycles", rc, msg)
				}
			}()
			New(cfg, sim.NewEngine())
		}()
	}
}
