package core

import (
	"reflect"
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// txLedger sees every transmission record a run acquires: a record is
// launched the tick it is acquired and lands in a receiver bucket one slot
// later, in the event phase, where a ticker registered ahead of the
// network's own finds it before the network's tick resolves it.
type txLedger struct {
	n    *Network
	seen map[*transmission]bool
}

func (led *txLedger) Tick(sim.Cycle) {
	for _, ns := range led.n.nodes {
		for l := range ns.arr {
			for _, group := range ns.arr[l] {
				for _, tx := range group {
					led.seen[tx] = true
				}
			}
		}
	}
}

// audit requires the network to be quiescent and every record the ledger
// saw to sit exactly once on its source's free list, scrubbed down to
// what acquire gave it at birth. A leaked record is missing from the
// lists, a record released twice is on them twice.
func (led *txLedger) audit(t *testing.T) {
	t.Helper()
	n := led.n
	free := map[*transmission]int{}
	for id, ns := range n.nodes {
		if !ns.idle() {
			t.Fatalf("node %d still has work queued, in retry or arriving", id)
		}
		for _, tx := range ns.txFree {
			free[tx]++
			if tx.n != n || tx.src != id || tx.rcv != id%n.cfg.Receivers {
				t.Errorf("node %d's free list holds a record born as (net %p, src %d, rcv %d)", id, tx.n, tx.src, tx.rcv)
			}
			if tx.arriveFn == nil || tx.deliverFn == nil || tx.backoffFn == nil || tx.confirmFn == nil || tx.requeueFn == nil {
				t.Errorf("node %d: a released record lost a bound callback", id)
			}
			bare := *tx
			bare.n, bare.arriveFn, bare.deliverFn, bare.backoffFn, bare.confirmFn, bare.requeueFn = nil, nil, nil, nil, nil, nil
			if want := (transmission{src: tx.src, rcv: tx.rcv}); !reflect.DeepEqual(bare, want) {
				t.Errorf("node %d: released record not scrubbed: %+v", id, bare)
			}
		}
	}
	if len(led.seen) == 0 {
		t.Fatal("the ledger saw no transmission: the scenario sent nothing")
	}
	for tx := range led.seen {
		if free[tx] != 1 {
			t.Errorf("record of node %d (packet %v) is on the free lists %d times, want 1", tx.src, tx.pkt, free[tx])
		}
	}
	if len(free) != len(led.seen) {
		t.Errorf("free lists hold %d distinct records, the run acquired %d", len(free), len(led.seen))
	}
}

// TestTransmissionReleasedExactlyOnce drives a packet's life to its one
// end, confirmation, through each detour on the way there, and audits the
// free lists.
func TestTransmissionReleasedExactlyOnce(t *testing.T) {
	type outcome struct{ delivered, confirmed int }
	cases := []struct {
		name  string
		cfg   func() Config
		setup func(n *Network)
		want  func(t *testing.T, st *Stats, got outcome, sent int)
	}{
		{
			name: "clean delivery",
			cfg:  basicConfig,
			want: func(t *testing.T, st *Stats, got outcome, sent int) {
				if got.confirmed != sent {
					t.Errorf("confirmed %d of %d", got.confirmed, sent)
				}
			},
		},
		{
			name: "collision and backoff, hints on",
			cfg:  func() Config { return PaperConfig(16) },
			want: func(t *testing.T, st *Stats, got outcome, sent int) {
				if st.Collisions[LaneMeta] == 0 || st.Collisions[LaneData] == 0 || st.HintsCorrect == 0 {
					t.Errorf("scenario produced collisions %v and %d hint winners; it needs both lanes and a winner", st.Collisions, st.HintsCorrect)
				}
				if got.confirmed != sent {
					t.Errorf("confirmed %d of %d", got.confirmed, sent)
				}
			},
		},
		{
			name:  "lost confirmation, duplicate, steering and degradation pipelines",
			cfg:   func() Config { c := basicConfig(); c.PhaseArray, c.PhaseSetup = true, 1; return c },
			setup: func(n *Network) { n.SetFaultModel(&stubFault{dropLeft: 25, ext: [numLanes]int{1, 3}}) },
			want: func(t *testing.T, st *Stats, got outcome, sent int) {
				if st.ConfirmDrops != 25 || st.DuplicateDeliveries == 0 {
					t.Errorf("confirm drops %d duplicates %d, want 25 and some", st.ConfirmDrops, st.DuplicateDeliveries)
				}
				if got.delivered != sent || got.confirmed != sent {
					t.Errorf("delivered %d confirmed %d of %d", got.delivered, got.confirmed, sent)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine := sim.NewEngine()
			n := New(tc.cfg(), engine, sim.NewRNG(7))
			n.SetBitErrorRate(0)
			if tc.setup != nil {
				tc.setup(n)
			}
			var got outcome
			n.SetDelivery(func(*noc.Packet, sim.Cycle) { got.delivered++ })
			n.SetConfirmDelivery(func(*noc.Packet, sim.Cycle) { got.confirmed++ })
			led := &txLedger{n: n, seen: map[*transmission]bool{}}
			engine.Register(led)
			engine.Register(sim.TickFunc(n.Tick))
			// Bursts of eight senders onto two destinations (so the two
			// receivers of each see four beams apiece), meta and data
			// alternating, then a tail of spread-out singles.
			sent := 0
			send := func(src, dst int, typ noc.PacketType) {
				if n.Send(&noc.Packet{ID: uint64(sent + 1), Src: src, Dst: dst, Type: typ}) {
					sent++
				}
			}
			for burst := 0; burst < 12; burst++ {
				typ := noc.PacketType(burst % 2)
				for src := 0; src < 8; src++ {
					send(src, 8+src%2, typ)
				}
				engine.Run(40)
			}
			for i := 0; i < 16; i++ {
				send(i, (i+5)%16, noc.PacketType(i%2))
				engine.Run(7)
			}
			engine.Run(20000)
			tc.want(t, n.Stats(), got, sent)
			led.audit(t)
		})
	}
}

// TestPacketRoundSteadyStateZeroAllocs: once the free lists, queues and
// the engine's slab have grown, a packet's whole life (send, arrive,
// deliver, confirm; and collide, back off, retransmit) allocates nothing
// inside the network.
func TestPacketRoundSteadyStateZeroAllocs(t *testing.T) {
	cfg := PaperConfig(64) // phase arrays: every delivery rides the steering pipeline
	engine := sim.NewEngine()
	n := New(cfg, engine, sim.NewRNG(3))
	delivered, confirmed := 0, 0
	n.SetDelivery(func(*noc.Packet, sim.Cycle) { delivered++ })
	n.SetConfirmDelivery(func(*noc.Packet, sim.Cycle) { confirmed++ })
	engine.Register(sim.TickFunc(n.Tick))
	// Caller-owned packets, as bench/drivers.go builds them: four senders
	// on one receiver of node 9 collide pairwise, meta and data; one
	// sender to node 20 does not.
	var pkts [5]noc.Packet
	round := func() {
		for i := range pkts {
			src, dst, typ := 4*i+3, 9, noc.PacketType(i%2)
			if i == 4 {
				src, dst = 2, 20
			}
			pkts[i] = noc.Packet{ID: uint64(i + 1), Src: src, Dst: dst, Type: typ}
			if !n.Send(&pkts[i]) {
				t.Fatal("send rejected")
			}
		}
		engine.Run(400)
	}
	for i := 0; i < 50; i++ {
		round()
	}
	if delivered != 50*len(pkts) || confirmed != delivered {
		t.Fatalf("warm-up delivered %d and confirmed %d of %d", delivered, confirmed, 50*len(pkts))
	}
	if st := n.Stats(); st.Collisions[LaneMeta] == 0 || st.Collisions[LaneData] == 0 {
		t.Fatalf("warm-up never collided (%v): the retry path is not being measured", st.Collisions)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a steady-state packet round allocates %.2f objects, want 0", allocs)
	}

	// The hotspot: sixteen senders a lane on one receiver, so every packet
	// backs off, most of them more than once, on the sleeping sweep.
	h := newHotspot()
	h.run(64 * len(h.pkts))
	if st := h.n.Stats(); st.Collided[LaneMeta] < 2*st.Delivered[LaneMeta] || st.Collided[LaneData] < 2*st.Delivered[LaneData] {
		t.Fatalf("hotspot warm-up collided %v times for %v deliveries: want retries to dominate", st.Collided, st.Delivered)
	}
	if allocs := testing.AllocsPerRun(20, func() { h.run(4 * len(h.pkts)) }); allocs != 0 {
		t.Fatalf("four warmed hotspot rounds allocate %.2f objects, want 0", allocs)
	}
}
