package mesh

import (
	"math"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// Ideal models the contention-free comparison networks of §7.1:
//
//   - L0: a packet experiences only source queuing plus serialization
//     (1 cycle for meta, 5 for data) — an idealized interconnect.
//   - Lr1/Lr2: L0 plus, per mesh hop, 1 cycle of link traversal and
//     RouterCycles (1 or 2) of router processing, with no contention or
//     queuing inside the network.
type Ideal struct {
	dim          int
	routerCycles int // per-hop router cycles; < 0 selects pure L0
	linkCycles   int
	injectQueue  int
	engine       *sim.Engine
	deliverFn    noc.DeliveryFunc
	lat          noc.LatencyStats

	queues   []ring[*noc.Packet]
	queued   bitset      // nodes with a packet queued: the only ones Tick visits
	busyTill []sim.Cycle // per-node serializer availability
	free     []*delivery // retired records, reused last in first out
	wake     sim.Wake    // Tick's alarm (zero, a no-op, unless RegisterTick)
}

// delivery is one packet on its contention-free way. It stays an engine
// event, unlike a mesh flit's hop: it runs the destination's coherence
// handlers and so must keep its (cycle, schedule order) place among the
// cycle's other events. Records are recycled through Ideal.free, and
// fire is bound when a record is first allocated, so a packet schedules
// no closure.
type delivery struct {
	n    *Ideal
	pkt  *noc.Packet
	fire func(now sim.Cycle)
}

// arrive retires the record and hands its packet over.
func (d *delivery) arrive(now sim.Cycle) {
	n, p := d.n, d.pkt
	d.pkt = nil
	n.free = append(n.free, d)
	n.lat.Record(p)
	if n.deliverFn != nil {
		n.deliverFn(p, now)
	}
}

// newIdeal builds an ideal network. Given the ideal network of a finished
// simulation over as many nodes (L0, Lr1 or Lr2 alike), which no one uses
// any more, it resets and returns that one: its NIC queues and delivery
// records keep their storage.
func newIdeal(dim, routerCycles, linkCycles int, engine *sim.Engine, donor []*Ideal) *Ideal {
	var n *Ideal
	if len(donor) > 0 && donor[0] != nil && donor[0].dim == dim {
		n = donor[0]
		for i := range n.queues {
			n.queues[i].reset()
		}
		clear(n.queued)
		clear(n.busyTill)
	} else {
		count := dim * dim
		n = &Ideal{queues: make([]ring[*noc.Packet], count), queued: newBitset(count), busyTill: make([]sim.Cycle, count)}
	}
	n.dim, n.routerCycles, n.linkCycles, n.injectQueue, n.engine = dim, routerCycles, linkCycles, 16, engine
	n.deliverFn, n.lat, n.wake = nil, noc.LatencyStats{}, sim.Wake{}
	return n
}

// NewL0 builds the idealized zero-latency network.
func NewL0(dim int, engine *sim.Engine, donor ...*Ideal) *Ideal {
	return newIdeal(dim, -1, 0, engine, donor)
}

// NewLr builds the hop-latency network with the given per-hop router
// cycles (1 => Lr1, 2 => Lr2).
func NewLr(dim, routerCycles int, engine *sim.Engine, donor ...*Ideal) *Ideal {
	return newIdeal(dim, routerCycles, 1, engine, donor)
}

// LatencyStats exposes accumulated measurements.
func (n *Ideal) LatencyStats() *noc.LatencyStats { return &n.lat }

// Lookahead is the finish-notice delay the system layer uses on the
// ideal networks (noc.Network): delivery is never sooner than the
// one-cycle serialization of the first flit.
func (n *Ideal) Lookahead() sim.Cycle { return 1 }

// SetDelivery installs the destination callback.
func (n *Ideal) SetDelivery(fn noc.DeliveryFunc) { n.deliverFn = fn }

// Send enqueues a packet at its source NIC. A node whose queue was empty
// wakes the tick for the cycle its serializer frees.
func (n *Ideal) Send(p *noc.Packet) bool {
	q := &n.queues[p.Src]
	if q.n >= n.injectQueue {
		return false
	}
	p.Created = n.engine.Now()
	q.push(p, n.injectQueue)
	if q.n == 1 {
		n.queued.set(p.Src)
		n.wake.At(max(p.Created, n.busyTill[p.Src]))
	}
	return true
}

// hops returns the Manhattan distance between two nodes.
func (n *Ideal) hops(a, b int) int {
	ax, ay := a%n.dim, a/n.dim
	bx, by := b%n.dim, b/n.dim
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// RegisterTick registers Tick on the engine the network was built over,
// asleep until a cycle in which a queued packet's serializer is free,
// and returns its alarm.
func (n *Ideal) RegisterTick() sim.Wake {
	n.wake = sim.Sleeper(n.engine, sim.TickFunc(n.Tick))
	return n.wake
}

// Tick serializes at most one packet start per node per cycle and
// schedules its contention-free delivery. Nodes are served in ascending
// id order; one with an empty queue has nothing to start. While packets
// stay queued the tick re-arms for the first cycle one can start.
func (n *Ideal) Tick(now sim.Cycle) {
	n.queued.each(func(node int) { n.start(node, now) })
	if at, ok := n.NextTick(now + 1); ok {
		n.wake.At(at)
	}
}

// NextTick reports the first cycle from now on in which Tick has work:
// the earliest a queued node's serializer is free, if any node has a
// packet queued.
func (n *Ideal) NextTick(now sim.Cycle) (sim.Cycle, bool) {
	at, ok := sim.Cycle(math.MaxInt64), false
	n.queued.each(func(node int) { at, ok = min(at, n.busyTill[node]), true })
	return max(at, now), ok
}

// start begins serializing node's oldest queued packet if its serializer
// is free.
func (n *Ideal) start(node int, now sim.Cycle) {
	if n.busyTill[node] > now {
		return
	}
	q := &n.queues[node]
	p := q.pop()
	if q.n == 0 {
		n.queued.clear(node)
	}
	ser := sim.Cycle(p.Type.Flits())
	n.busyTill[node] = now + ser
	p.QueuingDelay = int64(now - p.Created)
	network := ser
	if n.routerCycles >= 0 {
		h := n.hops(p.Src, p.Dst)
		network += sim.Cycle(h * (n.linkCycles + n.routerCycles))
	}
	p.NetworkDelay = int64(network)
	var d *delivery
	if k := len(n.free); k > 0 {
		d, n.free = n.free[k-1], n.free[:k-1]
	} else {
		d = &delivery{n: n}
		d.fire = d.arrive
	}
	d.pkt = p
	n.engine.At(now+network, d.fire)
}
