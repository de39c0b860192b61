package mesh

import (
	"fmt"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// Config parameterizes the mesh baseline.
type Config struct {
	Dim          int // nodes per edge (4 => 16 nodes)
	VCs          int // virtual channels per input port (Table 3: 4)
	BufferFlits  int // buffer depth per input VC, flits (Table 3: 12)
	RouterCycles int // router pipeline depth (baseline: 4)
	LinkCycles   int // link traversal (1)
	InjectQueue  int // packets buffered at the source NIC
	// BandwidthFrac (0 < f <= 1; 0 is unset and means 1) throttles
	// injection to model the Figure 11 bandwidth sweep: narrower channels
	// inject flits at a fractional rate.
	BandwidthFrac float64
}

// PaperMesh returns the baseline configuration of Table 3.
func PaperMesh(dim int) Config {
	return Config{Dim: dim, VCs: 4, BufferFlits: 12, RouterCycles: 4, LinkCycles: 1, InjectQueue: 16}
}

// Network is a full contention-modeled 2-D mesh.
type Network struct {
	cfg       Config
	engine    *sim.Engine
	routers   []*router
	deliverFn noc.DeliveryFunc
	lat       noc.LatencyStats

	// Per-node injection state.
	queues    []ring[*noc.Packet]
	inflight  []injection
	vcFree    [][]bool  // whether local input VC v of node i is free for a new packet
	vcCredits [][]int   // credits toward local input VC buffers
	flitHops  int64     // flits x hops, for Orion-style energy accounting
	bwTokens  []float64 // fractional-bandwidth injection credits

	// hop is the link traversal a forwarded flit is charged: LinkCycles,
	// and at least one, so a flit granted in one tick is never ready
	// downstream before the next.
	hop sim.Cycle

	// Tick visits only these: NICs with a packet queued or mid-injection
	// (or a token bank still filling), and routers buffering a flit.
	busyNICs    bitset
	busyRouters bitset

	flitsIn, flitsOut int64 // flits injected at / ejected through local ports
}

// FlitHops reports accumulated flit-hop activity (router traversals
// including the ejection hop).
func (n *Network) FlitHops() int64 { return n.flitHops }

// injection tracks a packet mid-serialization into the local port; pkt
// is nil while the NIC is between packets.
type injection struct {
	pkt      *noc.Packet
	vc       int
	sentFlit int
}

// New builds a mesh network over the engine.
func New(cfg Config, engine *sim.Engine) *Network {
	if numPorts*cfg.VCs > maskBits {
		panic(fmt.Sprintf("mesh: %d ports x %d VCs = %d input VCs per router exceed the %d-bit occupancy mask (at most %d VCs)",
			numPorts, cfg.VCs, numPorts*cfg.VCs, maskBits, maskBits/numPorts))
	}
	if f := cfg.BandwidthFrac; !(f >= 0 && f <= 1) {
		panic(fmt.Sprintf("mesh: BandwidthFrac %v is not a fraction in (0, 1] (0 = unset, full rate)", f))
	}
	if cfg.BandwidthFrac <= 0 { // unset
		cfg.BandwidthFrac = 1
	}
	n := &Network{cfg: cfg, engine: engine, hop: sim.Cycle(max(cfg.LinkCycles, 1))}
	count := cfg.Dim * cfg.Dim
	n.routers = make([]*router, count)
	for i := range n.routers {
		n.routers[i] = newRouter(i, cfg, n)
	}
	dim := cfg.Dim
	for _, r := range n.routers {
		connect := func(port int, nx, ny int) {
			if nx < 0 || nx >= dim || ny < 0 || ny >= dim {
				return
			}
			r.neighbor[port] = n.routers[ny*dim+nx]
		}
		connect(portEast, r.x+1, r.y)
		connect(portWest, r.x-1, r.y)
		connect(portSouth, r.x, r.y+1)
		connect(portNorth, r.x, r.y-1)
		// reverse port mapping: east<->west, north<->south.
		r.reverse[portEast] = portWest
		r.reverse[portWest] = portEast
		r.reverse[portNorth] = portSouth
		r.reverse[portSouth] = portNorth
		r.reverse[portLocal] = portLocal
	}
	n.busyNICs = newBitset(count)
	n.busyRouters = newBitset(count)
	n.bwTokens = make([]float64, count)
	n.queues = make([]ring[*noc.Packet], count)
	n.inflight = make([]injection, count)
	n.vcFree = make([][]bool, count)
	n.vcCredits = make([][]int, count)
	for i := 0; i < count; i++ {
		n.vcFree[i] = make([]bool, cfg.VCs)
		n.vcCredits[i] = make([]int, cfg.VCs)
		for v := 0; v < cfg.VCs; v++ {
			n.vcFree[i][v] = true
			n.vcCredits[i][v] = cfg.BufferFlits
		}
		if n.cfg.BandwidthFrac < 1 {
			n.busyNICs.set(i) // the token bank starts empty and must fill
		}
	}
	return n
}

// LatencyStats exposes accumulated measurements.
func (n *Network) LatencyStats() *noc.LatencyStats { return &n.lat }

// Lookahead is the finish-notice delay the system layer uses on the
// mesh (noc.Lookaheader): a flit takes at least one link cycle between
// adjacent routers, so no cross-node interaction lands sooner.
func (n *Network) Lookahead() sim.Cycle { return n.hop }

// SetDelivery installs the destination callback.
func (n *Network) SetDelivery(fn noc.DeliveryFunc) { n.deliverFn = fn }

// Send enqueues a packet at its source NIC.
func (n *Network) Send(p *noc.Packet) bool {
	q := &n.queues[p.Src]
	if q.n >= n.cfg.InjectQueue {
		return false
	}
	p.Created = n.engine.Now()
	q.push(p, n.cfg.InjectQueue)
	n.busyNICs.set(p.Src)
	return true
}

// Tick advances the injection machinery and every router one cycle.
// Idle NICs, empty routers and routers whose front flits are all still
// in the pipeline or on a link are skipped, which is exact: their tick
// would change nothing. The busy ones run in ascending id order.
func (n *Network) Tick(now sim.Cycle) {
	n.busyNICs.each(func(node int) { n.injectTick(node, now) })
	// A router's tick can empty only itself, and can fill a neighbour
	// with a flit that arrives after now. If that adds the neighbour to
	// the set mid-walk, its wake is that flit's readyAt, in the future,
	// so it is passed over whether or not the walk reaches it.
	n.busyRouters.each(func(id int) {
		if r := n.routers[id]; r.wake <= now {
			r.tick(now)
		}
	})
}

// injectTick gives node's NIC its cycle: at most one flit, and under a
// BandwidthFrac throttle only as fast as the token bank allows.
func (n *Network) injectTick(node int, now sim.Cycle) {
	idle := n.inflight[node].pkt == nil && n.queues[node].n == 0
	if n.cfg.BandwidthFrac < 1 {
		// A narrower channel stretches per-flit serialization to 1/frac
		// cycles: every cycle banks frac of a flit and a flit spends 1,
		// the remainder carrying over so the long-run rate is frac. A
		// cycle that sends nothing caps the bank at one flit, so neither
		// idle nor blocked periods accumulate burst credit.
		tokens := n.bwTokens[node] + n.cfg.BandwidthFrac
		switch {
		case tokens >= 1 && n.injectFlit(node, now):
			tokens--
		case tokens > 1:
			tokens = 1
		}
		n.bwTokens[node] = tokens
		idle = idle && tokens >= 1 // a filling bank still needs its ticks
	} else if !idle {
		n.injectFlit(node, now)
	}
	if idle {
		n.busyNICs.clear(node)
	}
}

// injectFlit pushes the next flit of node's current packet into the
// router's local input port, starting the next queued packet if none is
// in flight, and reports whether a flit went.
func (n *Network) injectFlit(node int, now sim.Cycle) bool {
	inj := &n.inflight[node]
	if inj.pkt == nil {
		q := &n.queues[node]
		if q.n == 0 {
			return false
		}
		// Local delivery without entering the network still pays
		// serialization through the local port, matching the baseline
		// simulator's treatment of same-node traffic.
		vc := -1
		for v := 0; v < n.cfg.VCs; v++ {
			if n.vcFree[node][v] && n.vcCredits[node][v] > 0 {
				vc = v
				break
			}
		}
		if vc < 0 {
			return false
		}
		pkt := q.pop()
		n.vcFree[node][vc] = false
		*inj = injection{pkt: pkt, vc: vc}
		pkt.QueuingDelay = int64(now - pkt.Created)
	}
	if n.vcCredits[node][inj.vc] <= 0 {
		return false
	}
	flits := inj.pkt.Type.Flits()
	f := flit{
		pkt:  inj.pkt,
		head: inj.sentFlit == 0,
		tail: inj.sentFlit == flits-1,
	}
	n.vcCredits[node][inj.vc]--
	n.flitsIn++
	n.routers[node].acceptFlit(portLocal, inj.vc, f, now)
	inj.sentFlit++
	if inj.sentFlit == flits {
		n.vcFree[node][inj.vc] = true
		*inj = injection{}
	}
	return true
}

// injectCredit returns a local-port buffer slot for node's VC v.
func (n *Network) injectCredit(node, v int) {
	n.vcCredits[node][v]++
}

// deliver completes a packet at its destination.
func (n *Network) deliver(p *noc.Packet, now sim.Cycle) {
	p.NetworkDelay = int64(now-p.Created) - p.QueuingDelay
	dim := n.cfg.Dim
	dx := p.Src%dim - p.Dst%dim
	dy := p.Src/dim - p.Dst/dim
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	n.flitHops += int64(p.Type.Flits() * (dx + dy + 1))
	n.lat.Record(p)
	if n.deliverFn != nil {
		n.deliverFn(p, now)
	}
}

// NumNodes reports the node count.
func (n *Network) NumNodes() int { return n.cfg.Dim * n.cfg.Dim }
