package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
)

// refTicker is the reference model the busy-set sweep replaced: every
// node, every cycle, a modulo per lane and a walk of its receiver
// buckets, with the node-slots counted one by one. It shares the
// per-slot body (resolveGroup, startSlot) with the network and never
// reads or clears a busy bit.
type refTicker struct {
	n     *Network
	slots [numLanes]int64
}

func (r *refTicker) Tick(now sim.Cycle) {
	n := r.n
	for id, ns := range n.nodes {
		for l := Lane(0); l < numLanes; l++ {
			slotLen := int64(n.cfg.SlotCycles(l))
			if int64(now)%slotLen != 0 {
				continue
			}
			slot := int64(now) / slotLen
			for rcv := range ns.arr[l] {
				group := ns.arr[l][rcv]
				if len(group) == 0 {
					continue
				}
				ns.arr[l][rcv] = ns.arr[l][rcv][:0]
				n.resolveGroup(id, l, slot-1, group, now)
			}
			r.slots[l]++
			n.startSlot(id, ns, l, slot, now)
		}
	}
}

// checkBusyInvariant is the busy set's soundness condition, checked
// between cycles: a node whose bit is clear has nothing queued, nothing
// in retry and nothing arrived on either lane — otherwise the sweep
// would skip work the reference does. It also holds each node's
// summaries to what they summarise: an arrival-mask bit is set exactly
// when its receiver's bucket is non-empty, and a lane's due slot is the
// least retrySlot on its retry list (MaxInt64 on an empty one).
func checkBusyInvariant(n *Network) error {
	for id, ns := range n.nodes {
		for l := Lane(0); l < numLanes; l++ {
			for rcv, group := range ns.arr[l] {
				if bit := ns.arrMask[l]&(1<<uint(rcv)) != 0; bit != (len(group) > 0) {
					return fmt.Errorf("node %d %v receiver %d: mask bit %v with %d arrivals", id, l, rcv, bit, len(group))
				}
			}
			if extra := ns.arrMask[l] >> uint(len(ns.arr[l])); extra != 0 {
				return fmt.Errorf("node %d %v: mask %#x has bits past receiver %d", id, l, ns.arrMask[l], len(ns.arr[l])-1)
			}
			least := int64(math.MaxInt64)
			for _, tx := range ns.retries[l] {
				least = min(least, tx.retrySlot)
			}
			if ns.due[l] != least {
				return fmt.Errorf("node %d %v: due slot %d, least of %d retries is %d", id, l, ns.due[l], len(ns.retries[l]), least)
			}
		}
		if !n.busy.Has(id) && !ns.idle() {
			return fmt.Errorf("node %d is not in the busy set but holds queue=%d/%d retries=%d/%d arr=%v",
				id, len(ns.queue[LaneMeta]), len(ns.queue[LaneData]),
				len(ns.retries[LaneMeta]), len(ns.retries[LaneData]), ns.arr)
		}
	}
	return nil
}

// tickMode selects how a run's network is ticked.
type tickMode int

const (
	tickSweep     tickMode = iota // Network.Tick: the production sweep
	tickReference                 // refTicker
	tickPerNode                   // TickNode registered per node, as bench/drivers.go does
	tickSleeping                  // RegisterSweep: the sweep asleep until woken, as system.New registers it, and Run jumping idle cycles
)

// noisyModels is a FaultModel and AdversaryModel that exercises every
// hook from its own seeded stream, so two runs agree only if they query
// it in the same order with the same arguments.
type noisyModels struct {
	rng *sim.RNG
}

func (m *noisyModels) BitErrorRate(src int, now sim.Cycle) float64 {
	if src%3 == 0 {
		return 2e-4 // ~1.4% of meta and ~7% of data packets corrupt
	}
	return 1e-6
}

func (m *noisyModels) SlotExtension(src int, l Lane) int {
	if src%5 == 1 && l == LaneData {
		return 2
	}
	return 0
}

func (m *noisyModels) DropConfirm(src, dst int, now sim.Cycle) bool { return m.rng.Bool(0.05) }

func (m *noisyModels) SpoofedHeader(src int, at sim.Cycle, rng *sim.RNG) bool {
	return src == 2 && rng.Bool(0.3)
}

func (m *noisyModels) StarveConfirm(dst int, at sim.Cycle, rng *sim.RNG) bool {
	return dst == 4 && rng.Bool(0.2)
}

// linkLog is a LinkObserver that records what it is told.
type linkLog struct{ log *[]string }

func (l linkLog) NoteCollision(src, dst int) { *l.log = append(*l.log, fmt.Sprint("coll ", src, dst)) }
func (l linkLog) NoteBackoff(src, dst, attempt int) {
	*l.log = append(*l.log, fmt.Sprint("backoff ", src, dst, attempt))
}

// op is one scheduled call into the network.
type op struct {
	at       sim.Cycle
	bit      bool // SendConfirmBit instead of Send
	src, dst int
	data     bool
	flags    uint8 // ExpectsDataReply | IsWriteback | IsReply | IsMemory
}

// outcome is everything observable about a run.
type outcome struct {
	log      []string // deliveries, confirmations, drops, bits, rejected sends, link notes: in order
	stats    Stats
	lat      *noc.LatencyStats
	events   []obs.Event
	fired    uint64
	refSlots [numLanes]int64 // tickReference only
}

// runOps builds a network with faults, adversaries and observers on,
// applies the schedule and runs it for the given number of cycles,
// checking the busy invariant after every cycle of a non-reference run.
func runOps(t testing.TB, cfg Config, mode tickMode, ops []op, cycles sim.Cycle) outcome {
	t.Helper()
	engine := sim.NewEngine()
	n := New(cfg, engine, sim.NewRNG(7))
	var out outcome
	n.SetDelivery(func(p *noc.Packet, now sim.Cycle) {
		out.log = append(out.log, fmt.Sprint("deliver ", now, p.ID, p.Src, p.Dst, p.Retries,
			p.QueuingDelay, p.SchedulingDelay, p.NetworkDelay, p.ResolutionDelay))
	})
	n.SetConfirmDelivery(func(p *noc.Packet, now sim.Cycle) {
		out.log = append(out.log, fmt.Sprint("confirm ", now, p.ID))
	})
	n.SetBitDelivery(func(src, dst int, tag uint64, value bool, now sim.Cycle) {
		out.log = append(out.log, fmt.Sprint("bit ", now, src, dst, tag, value))
	})
	models := &noisyModels{rng: sim.NewRNG(11)}
	n.SetFaultModel(models)
	n.SetAdversaryModel(models)
	rec := obs.NewSharded([]obs.Block{{Hi: cfg.Nodes}}, 0)
	n.SetObserver(rec)
	sinks := make([]LinkObserver, cfg.Nodes)
	for i := range sinks {
		sinks[i] = linkLog{&out.log}
	}
	n.SetLinkObservers(sinks)

	ref := &refTicker{n: n}
	switch mode {
	case tickReference:
		engine.Register(ref)
	case tickPerNode:
		for i := 0; i < cfg.Nodes; i++ {
			id := i
			engine.Register(sim.TickFunc(func(now sim.Cycle) { n.TickNode(id, now) }))
		}
	case tickSleeping:
		n.RegisterSweep()
	default:
		engine.Register(sim.TickFunc(n.Tick))
	}
	// An always-on checker would keep Run from jumping; the sleeping
	// sweep's arming is checked whole-system (system's
	// TestNoSleeperSleepsPastItsWork).
	if mode != tickReference && mode != tickSleeping {
		engine.Register(sim.TickFunc(func(now sim.Cycle) {
			if err := checkBusyInvariant(n); err != nil {
				t.Fatalf("after cycle %d: %v", now, err)
			}
		}))
	}

	for i, o := range ops {
		o, id := o, uint64(i+1)
		engine.At(o.at, func(sim.Cycle) {
			if o.bit {
				n.SendConfirmBit(o.src, o.dst, id, o.flags&1 != 0)
				return
			}
			p := &noc.Packet{
				ID: id, Src: o.src, Dst: o.dst,
				ExpectsDataReply: !o.data && o.flags&1 != 0,
				IsWriteback:      o.data && o.flags&2 != 0,
				IsReply:          o.data && o.flags&4 != 0,
				IsMemory:         o.flags&8 != 0,
			}
			if o.data {
				p.Type = noc.Data
			}
			if !n.Send(p) {
				out.log = append(out.log, fmt.Sprint("rejected ", id))
			}
		})
	}
	engine.Run(cycles)
	out.stats = *n.Stats()
	out.lat = n.LatencyStats()
	out.events = rec.Merged().Events()
	out.fired = engine.EventsFired()
	out.refSlots = ref.slots
	return out
}

// randomOps draws a bursty schedule: hot destinations so slots collide,
// same-node sends, writebacks, requests expecting replies and
// confirmation-lane bits.
func randomOps(seed uint64, nodes, count int, span sim.Cycle) []op {
	rng := sim.NewRNG(seed).NewStream("reference-ops")
	ops := make([]op, count)
	for i := range ops {
		o := op{
			at:    sim.Cycle(rng.Intn(int(span))),
			src:   rng.Intn(nodes),
			dst:   rng.Intn(nodes),
			data:  rng.Bool(0.4),
			flags: uint8(rng.Intn(16)),
			bit:   rng.Bool(0.05),
		}
		if rng.Bool(0.3) {
			o.dst = rng.Intn(3) // hotspot
		}
		ops[i] = o
	}
	return ops
}

// diffConfigs are the differential test's configurations: the paper's
// two, a retry-limited one, and lane widths whose slot lengths do not
// divide each other (3 and 5, 3 and 8, 6 and 8 cycles).
func diffConfigs() []namedConfig {
	lanes := func(nodes, meta, data int) Config {
		cfg := PaperConfig(nodes)
		cfg.MetaVCSELs, cfg.DataVCSELs = meta, data
		return cfg
	}
	return []namedConfig{
		{"paper16", PaperConfig(16)},
		{"paper64", PaperConfig(64)},
		{"slots3and5", lanes(16, 2, 6)},
		{"slots3and8", lanes(16, 2, 4)},
		{"slots6and8", lanes(64, 1, 4)},
	}
}

type namedConfig struct {
	name string
	cfg  Config
}

// sameOutcome compares everything but the reference's own slot tally.
func sameOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if len(got.log) != len(want.log) {
		t.Fatalf("%s: %d log lines, reference has %d", what, len(got.log), len(want.log))
	}
	for i := range got.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("%s: log line %d is %q, reference has %q", what, i, got.log[i], want.log[i])
		}
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats differ\n got %+v\nwant %+v", what, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.lat, want.lat) {
		t.Fatalf("%s: latency stats differ\n got %+v\nwant %+v", what, got.lat, want.lat)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("%s: lifecycle events differ (%d vs %d)", what, len(got.events), len(want.events))
	}
	if got.fired != want.fired {
		t.Fatalf("%s: %d engine events fired, reference fired %d", what, got.fired, want.fired)
	}
}

// TestSweepMatchesReference is the differential test: the busy-set
// sweep, the per-node TickNode drive and the sleeping sweep must all
// reproduce the every-node reference exactly — stats (with the
// arithmetic SlotsObserved against the counted one), latency, delivery
// order, lifecycle events and engine event count — with faults,
// adversaries and observers attached.
func TestSweepMatchesReference(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range diffConfigs() {
		name, cfg := c.name, c.cfg
		for _, seed := range seeds {
			ops := randomOps(seed, cfg.Nodes, 600, 1500)
			// An odd horizon, so the run stops between slot boundaries
			// and with retries still pending.
			const cycles = 2003
			want := runOps(t, cfg, tickReference, ops, cycles)
			if want.stats.Collisions[LaneMeta]+want.stats.Collisions[LaneData] == 0 || want.stats.ConfirmDrops == 0 {
				t.Fatalf("%s seed %d: the schedule never collided or never lost a confirmation; it tests nothing", name, seed)
			}
			want.stats.SlotsObserved = want.refSlots
			for _, m := range []struct {
				mode  tickMode
				label string
			}{{tickSweep, "sweep"}, {tickPerNode, "per-node TickNode"}, {tickSleeping, "sleeping sweep"}} {
				got := runOps(t, cfg, m.mode, ops, cycles)
				sameOutcome(t, fmt.Sprintf("%s seed %d %s", name, seed, m.label), got, want)
			}
		}
	}
}

// TestSlotsObservedIsArithmetic stops runs at arbitrary cycles and
// requires nodes*ceil(now/slotLen) to equal the reference's count.
func TestSlotsObservedIsArithmetic(t *testing.T) {
	for _, c := range diffConfigs() {
		name, cfg := c.name, c.cfg
		ops := randomOps(5, cfg.Nodes, 50, 40)
		for _, cycles := range []sim.Cycle{0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 24, 25, 119, 120, 121, 997} {
			ref := runOps(t, cfg, tickReference, ops, cycles)
			got := runOps(t, cfg, tickSweep, ops, cycles)
			if got.stats.SlotsObserved != ref.refSlots {
				t.Fatalf("%s stopped at %d: SlotsObserved %v, reference counted %v", name, cycles, got.stats.SlotsObserved, ref.refSlots)
			}
		}
	}
}

// TestBusyInvariantCatchesUnmarkedArrival plants the states a dropped
// Mark or a dropped mask bit in the arrival event would leave — a
// transmission in a receiver bucket of a node outside the busy set, or
// without its bit — and the one a dropped due update in parkRetry would,
// and requires the invariant to report each. (The real mutations fail
// TestSweepMatchesReference at its first cycle check.)
func TestBusyInvariantCatchesUnmarkedArrival(t *testing.T) {
	n := New(PaperConfig(16), sim.NewEngine(), sim.NewRNG(1))
	if err := checkBusyInvariant(n); err != nil {
		t.Fatalf("fresh network: %v", err)
	}
	ns := n.nodes[3]
	tx := &transmission{pkt: &noc.Packet{Src: 1, Dst: 3}, src: 1, rcv: 1}
	ns.arr[LaneMeta][1] = append(ns.arr[LaneMeta][1], tx)
	if checkBusyInvariant(n) == nil {
		t.Fatal("an arrival without its mask bit went unnoticed")
	}
	ns.arrMask[LaneMeta] |= 1 << 1
	if checkBusyInvariant(n) == nil {
		t.Fatal("an arrival at a node outside the busy set went unnoticed")
	}
	n.busy.Mark(3)
	if err := checkBusyInvariant(n); err != nil {
		t.Fatalf("marked node: %v", err)
	}
	ns.arrMask[LaneMeta] |= 1 << 0
	if checkBusyInvariant(n) == nil {
		t.Fatal("a mask bit over an empty bucket went unnoticed")
	}
	ns.arrMask[LaneMeta] = 1 << 1

	retry := &transmission{pkt: &noc.Packet{Src: 3, Dst: 5}, src: 3, retrySlot: 40}
	ns.retries[LaneData] = append(ns.retries[LaneData], retry)
	if checkBusyInvariant(n) == nil {
		t.Fatal("a retry parked without lowering the lane's due slot went unnoticed")
	}
	ns.due[LaneData] = 40
	if err := checkBusyInvariant(n); err != nil {
		t.Fatalf("due slot set: %v", err)
	}
	ns.takeRetry(LaneData, 0)
	if err := checkBusyInvariant(n); err != nil || ns.due[LaneData] != math.MaxInt64 {
		t.Fatalf("after the last retry left: due %d, %v", ns.due[LaneData], err)
	}
}

// FuzzBusySetMatchesReference drives random Send / SendConfirmBit
// schedules through the sweep, the sleeping sweep and the reference. Five bytes make one
// call: cycle delta, source, destination, kind and flags.
func FuzzBusySetMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 0, 0})
	f.Add(uint8(1), []byte{0, 1, 2, 1, 2, 0, 3, 2, 1, 2, 0, 5, 2, 1, 0, 1, 7, 7, 0, 0})
	f.Add(uint8(3), []byte{2, 0, 1, 2, 1, 0, 4, 1, 0, 1, 0, 9, 1, 0, 1, 3, 9, 1, 1, 4, 0, 2, 5, 2, 1})
	f.Add(uint8(5), []byte{1, 3, 0, 0, 1, 0, 6, 0, 0, 1, 0, 9, 0, 0, 1, 0, 12, 0, 1, 6, 200, 3, 0, 0, 0})
	configs := diffConfigs()
	f.Fuzz(func(t *testing.T, pick uint8, raw []byte) {
		cfg := configs[int(pick)%len(configs)].cfg
		if len(raw) > 5*400 {
			raw = raw[:5*400]
		}
		var ops []op
		at := sim.Cycle(0)
		for ; len(raw) >= 5; raw = raw[5:] {
			at += sim.Cycle(raw[0] % 16)
			ops = append(ops, op{
				at:    at,
				src:   int(raw[1]) % cfg.Nodes,
				dst:   int(raw[2]) % cfg.Nodes,
				data:  raw[3]&1 != 0,
				bit:   raw[3]&6 == 6,
				flags: raw[4],
			})
		}
		cycles := at + 801
		want := runOps(t, cfg, tickReference, ops, cycles)
		want.stats.SlotsObserved = want.refSlots
		what := fmt.Sprintf("%d ops over %d cycles", len(ops), cycles)
		sameOutcome(t, what, runOps(t, cfg, tickSweep, ops, cycles), want)
		sameOutcome(t, what+" asleep", runOps(t, cfg, tickSleeping, ops, cycles), want)
	})
}
