package mesh

import (
	"fmt"
	"math/bits"

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
	// BandwidthFrac (0 < f <= 1) throttles injection to model the
	// Figure 11 bandwidth sweep: narrower channels inject flits at a
	// fractional rate.
	BandwidthFrac float64
}

// MaxRouterCycles is the deepest router pipeline New accepts: the wake
// calendar has a bucket per cycle a wake can lie ahead. The paper uses
// 4, 2 and 1.
const MaxRouterCycles = 64

// PaperMesh returns the baseline configuration of Table 3.
func PaperMesh(dim int) Config {
	return Config{Dim: dim, VCs: 4, BufferFlits: 12, RouterCycles: 4, LinkCycles: 1, InjectQueue: 16, BandwidthFrac: 1}
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

	// busyNICs holds the NICs with a packet queued or mid-injection (or
	// a token bank still filling); Tick visits only those.
	busyNICs bitset
	// due is the routers' wake calendar: bucket c&dueMask, words
	// [(c&dueMask)*dueWords, +dueWords), is the bitset of the routers
	// that buffer a flit and wake at cycle c. A wake lies at most
	// hop+RouterCycles ahead, so the buckets never alias a live cycle.
	due      []uint64
	dueMask  sim.Cycle
	dueWords int

	// inPort and inLane map an input VC index to its (port, lane), and
	// coords a node to its column and row: a flit-hop divides by
	// nothing.
	inPort, inLane [maskBits]uint8
	coords         []xy

	flitsIn, flitsOut int64 // flits injected at / ejected through local ports
}

// FlitHops reports accumulated flit-hop activity (router traversals
// including the ejection hop).
func (n *Network) FlitHops() int64 { return n.flitHops }

// xy is a node's column and row.
type xy struct{ x, y int32 }

// injection tracks a packet mid-serialization into the local port; pkt
// is nil while the NIC is between packets.
type injection struct {
	pkt      *noc.Packet
	vc       int
	sentFlit int
}

// New builds a mesh network over the engine. Given the network of a
// finished simulation with the same configuration, which no one uses any
// more, it resets and returns that one: its routers, VC rings and NIC
// queues keep their storage. A donor of another configuration is ignored.
func New(cfg Config, engine *sim.Engine, donor ...*Network) *Network {
	if numPorts*cfg.VCs > maskBits {
		panic(fmt.Sprintf("mesh: %d ports x %d VCs = %d input VCs per router exceed the %d-bit occupancy mask (at most %d VCs)",
			numPorts, cfg.VCs, numPorts*cfg.VCs, maskBits, maskBits/numPorts))
	}
	if cfg.RouterCycles < 0 || cfg.RouterCycles > MaxRouterCycles {
		panic(fmt.Sprintf("mesh: RouterCycles %d is outside [0, %d]", cfg.RouterCycles, MaxRouterCycles))
	}
	if len(donor) > 0 && donor[0] != nil && donor[0].cfg == cfg {
		n := donor[0]
		n.reset(engine)
		return n
	}
	n := &Network{cfg: cfg, hop: sim.Cycle(max(cfg.LinkCycles, 1))}
	count := cfg.Dim * cfg.Dim
	for p, idx := 0, 0; p < numPorts; p++ {
		for v := 0; v < cfg.VCs; v, idx = v+1, idx+1 {
			n.inPort[idx], n.inLane[idx] = uint8(p), uint8(v)
		}
	}
	n.coords = make([]xy, count)
	for y, node := 0, 0; y < cfg.Dim; y++ {
		for x := 0; x < cfg.Dim; x, node = x+1, node+1 {
			n.coords[node] = xy{int32(x), int32(y)}
		}
	}
	slots := sim.Cycle(1)
	for slots <= n.hop+sim.Cycle(cfg.RouterCycles) {
		slots <<= 1
	}
	n.dueMask, n.dueWords = slots-1, (count+63)/64
	n.due = make([]uint64, int(slots)*n.dueWords)
	n.routers = make([]*router, count)
	k := numPorts * cfg.VCs
	inputs, credits := make([]vc, count*k), make([]int, count*k)
	for i := range n.routers {
		n.routers[i] = newRouter(i, n, inputs[i*k:(i+1)*k:(i+1)*k], credits[i*k:(i+1)*k:(i+1)*k])
	}
	dim := cfg.Dim
	for _, r := range n.routers {
		connect := func(port int, nx, ny int) {
			if nx < 0 || nx >= dim || ny < 0 || ny >= dim {
				return
			}
			r.neighbor[port] = n.routers[ny*dim+nx]
		}
		x, y := int(n.coords[r.id].x), int(n.coords[r.id].y)
		connect(portEast, x+1, y)
		connect(portWest, x-1, y)
		connect(portSouth, x, y+1)
		connect(portNorth, x, y-1)
	}
	n.busyNICs = newBitset(count)
	n.bwTokens = make([]float64, count)
	n.queues = make([]ring[*noc.Packet], count)
	n.inflight = make([]injection, count)
	n.vcFree = make([][]bool, count)
	n.vcCredits = make([][]int, count)
	for i := 0; i < count; i++ {
		n.vcFree[i] = make([]bool, cfg.VCs)
		n.vcCredits[i] = make([]int, cfg.VCs)
	}
	n.reset(engine)
	return n
}

// reset puts the network in the state a new one starts in, over engine:
// every buffer, queue, credit and counter as New leaves them.
func (n *Network) reset(engine *sim.Engine) {
	n.engine, n.deliverFn = engine, nil
	n.lat = noc.LatencyStats{}
	n.flitHops, n.flitsIn, n.flitsOut = 0, 0, 0
	clear(n.busyNICs)
	clear(n.due)
	clear(n.bwTokens)
	clear(n.inflight)
	for i := range n.queues {
		n.queues[i].reset()
		for v := range n.vcFree[i] {
			n.vcFree[i][v] = true
			n.vcCredits[i][v] = n.cfg.BufferFlits
		}
		if n.cfg.BandwidthFrac < 1 {
			n.busyNICs.set(i) // the token bank starts empty and must fill
		}
	}
	for _, r := range n.routers {
		r.reset()
	}
}

// LatencyStats exposes accumulated measurements.
func (n *Network) LatencyStats() *noc.LatencyStats { return &n.lat }

// Lookahead is the finish-notice delay the system layer uses on the
// mesh (noc.Network): a flit takes at least one link cycle between
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
// would change nothing. The routers that wake now run in ascending id
// order.
func (n *Network) Tick(now sim.Cycle) {
	n.busyNICs.each(func(node int) { n.injectTick(node, now) })
	// A router's tick moves only itself out of this bucket, and a flit
	// it forwards is ready after now, so no router joins the bucket
	// mid-walk: each word read once is the word's whole walk.
	bucket := n.bucket(now)
	for w := range bucket {
		for word := bucket[w]; word != 0; word &= word - 1 {
			n.routers[w<<6+bits.TrailingZeros64(word)].tick(now)
		}
	}
}

// bucket returns the calendar's bitset of the routers that wake at c.
func (n *Network) bucket(c sim.Cycle) []uint64 {
	base := int(c&n.dueMask) * n.dueWords
	return n.due[base : base+n.dueWords]
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
	src, dst := n.coords[p.Src], n.coords[p.Dst]
	dx, dy := int(src.x-dst.x), int(src.y-dst.y)
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
