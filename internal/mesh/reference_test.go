package mesh

import (
	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// The reference model is the mesh as it stood before it became
// activity-driven: every router scans all of its input VCs in both
// allocation stages on every cycle, VCs are heap-allocated FIFOs grown
// by append, every NIC is polled every cycle (under a BandwidthFrac
// throttle every token bank accrues every cycle), and every flit-hop is
// one engine event. It is kept, unedited in behaviour, only for
// differential_test.go to compare against.

type refVC struct {
	fifo    []flit
	outPort int
	outVC   int
}

type refOutput struct {
	creditsPerVC []int
	vcHeld       []bool
	lastVC       int
	lastInput    int
}

type refRouter struct {
	id       int
	cfg      Config
	inputs   [numPorts][]*refVC
	outputs  [numPorts]*refOutput
	neighbor [numPorts]*refRouter
	reverse  [numPorts]int
	net      *refNetwork
}

type refInjection struct {
	pkt      *noc.Packet
	vc       int
	sentFlit int
}

type refNetwork struct {
	cfg       Config
	engine    sim.Scheduler
	routers   []*refRouter
	deliverFn noc.DeliveryFunc

	queues    [][]*noc.Packet
	inflight  []*refInjection
	vcFree    [][]bool
	vcCredits [][]int
	bwTokens  []float64
}

func newRefNetwork(cfg Config, engine sim.Scheduler) *refNetwork {
	n := &refNetwork{cfg: cfg, engine: engine}
	count := cfg.Dim * cfg.Dim
	n.routers = make([]*refRouter, count)
	for i := range n.routers {
		r := &refRouter{id: i, cfg: cfg, net: n}
		for p := 0; p < numPorts; p++ {
			r.inputs[p] = make([]*refVC, cfg.VCs)
			for v := range r.inputs[p] {
				r.inputs[p][v] = &refVC{outPort: -1, outVC: -1}
			}
			out := &refOutput{creditsPerVC: make([]int, cfg.VCs), vcHeld: make([]bool, cfg.VCs)}
			for v := range out.creditsPerVC {
				out.creditsPerVC[v] = cfg.BufferFlits
			}
			r.outputs[p] = out
		}
		n.routers[i] = r
	}
	dim := cfg.Dim
	for i, r := range n.routers {
		x, y := i%dim, i/dim
		connect := func(port int, nx, ny int) {
			if nx < 0 || nx >= dim || ny < 0 || ny >= dim {
				return
			}
			r.neighbor[port] = n.routers[ny*dim+nx]
		}
		connect(portEast, x+1, y)
		connect(portWest, x-1, y)
		connect(portSouth, x, y+1)
		connect(portNorth, x, y-1)
		r.reverse[portEast] = portWest
		r.reverse[portWest] = portEast
		r.reverse[portNorth] = portSouth
		r.reverse[portSouth] = portNorth
		r.reverse[portLocal] = portLocal
	}
	n.queues = make([][]*noc.Packet, count)
	n.inflight = make([]*refInjection, count)
	n.vcFree = make([][]bool, count)
	n.vcCredits = make([][]int, count)
	n.bwTokens = make([]float64, count)
	for i := 0; i < count; i++ {
		n.vcFree[i] = make([]bool, cfg.VCs)
		n.vcCredits[i] = make([]int, cfg.VCs)
		for v := 0; v < cfg.VCs; v++ {
			n.vcFree[i][v] = true
			n.vcCredits[i][v] = cfg.BufferFlits
		}
	}
	return n
}

func (n *refNetwork) SetDelivery(fn noc.DeliveryFunc) { n.deliverFn = fn }

func (n *refNetwork) Send(p *noc.Packet) bool {
	q := n.queues[p.Src]
	if len(q) >= n.cfg.InjectQueue {
		return false
	}
	p.Created = n.engine.Now()
	n.queues[p.Src] = append(q, p)
	return true
}

func (n *refNetwork) Tick(now sim.Cycle) {
	frac := n.cfg.BandwidthFrac
	for i := range n.routers {
		if frac <= 0 || frac >= 1 {
			n.injectTick(i, now)
			continue
		}
		tokens := n.bwTokens[i] + frac
		switch {
		case tokens >= 1 && n.injectTick(i, now):
			tokens--
		case tokens > 1:
			tokens = 1
		}
		n.bwTokens[i] = tokens
	}
	for _, r := range n.routers {
		r.tick(now)
	}
}

// injectTick reports whether a flit went.
func (n *refNetwork) injectTick(node int, now sim.Cycle) bool {
	inj := n.inflight[node]
	if inj == nil {
		if len(n.queues[node]) == 0 {
			return false
		}
		pkt := n.queues[node][0]
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
		n.queues[node] = n.queues[node][1:]
		n.vcFree[node][vc] = false
		inj = &refInjection{pkt: pkt, vc: vc}
		n.inflight[node] = inj
		pkt.QueuingDelay = int64(now - pkt.Created)
	}
	if n.vcCredits[node][inj.vc] <= 0 {
		return false
	}
	flits := inj.pkt.Type.Flits()
	f := flit{pkt: inj.pkt, head: inj.sentFlit == 0, tail: inj.sentFlit == flits-1}
	n.vcCredits[node][inj.vc]--
	n.routers[node].acceptFlit(portLocal, inj.vc, f, now)
	inj.sentFlit++
	if inj.sentFlit == flits {
		n.vcFree[node][inj.vc] = true
		n.inflight[node] = nil
	}
	return true
}

func (n *refNetwork) deliver(p *noc.Packet, now sim.Cycle) {
	p.NetworkDelay = int64(now-p.Created) - p.QueuingDelay
	if n.deliverFn != nil {
		n.deliverFn(p, now)
	}
}

func (r *refRouter) xyRoute(dst int) int {
	dim := r.cfg.Dim
	myX, myY := r.id%dim, r.id/dim
	dX, dY := dst%dim, dst/dim
	switch {
	case dX > myX:
		return portEast
	case dX < myX:
		return portWest
	case dY > myY:
		return portSouth
	case dY < myY:
		return portNorth
	default:
		return portLocal
	}
}

func (r *refRouter) acceptFlit(p, v int, f flit, now sim.Cycle) {
	f.readyAt = now + sim.Cycle(r.cfg.RouterCycles)
	r.inputs[p][v].fifo = append(r.inputs[p][v].fifo, f)
}

func (r *refRouter) tick(now sim.Cycle) {
	// Stage 1: route computation + VC allocation for head flits at the
	// front of each input VC.
	for p := 0; p < numPorts; p++ {
		for v := 0; v < r.cfg.VCs; v++ {
			in := r.inputs[p][v]
			if len(in.fifo) == 0 {
				continue
			}
			f := in.fifo[0]
			if !f.head || f.readyAt > now {
				continue
			}
			if in.outPort < 0 {
				in.outPort = r.xyRoute(f.pkt.Dst)
			}
			if in.outVC < 0 && in.outPort != portLocal {
				out := r.outputs[in.outPort]
				for i := 0; i < r.cfg.VCs; i++ {
					cand := (out.lastVC + 1 + i) % r.cfg.VCs
					if !out.vcHeld[cand] {
						out.vcHeld[cand] = true
						out.lastVC = cand
						in.outVC = cand
						break
					}
				}
			}
		}
	}

	// Stage 2: switch allocation + traversal. Each output accepts at most
	// one flit per cycle; each input VC sends at most one flit per cycle.
	for outPort := 0; outPort < numPorts; outPort++ {
		out := r.outputs[outPort]
		claimed := false
		for i := 0; i < numPorts*r.cfg.VCs && !claimed; i++ {
			idx := (out.lastInput + 1 + i) % (numPorts * r.cfg.VCs)
			p, v := idx/r.cfg.VCs, idx%r.cfg.VCs
			in := r.inputs[p][v]
			if len(in.fifo) == 0 || in.outPort != outPort {
				continue
			}
			f := in.fifo[0]
			if f.readyAt > now {
				continue
			}
			if outPort == portLocal {
				r.consume(in, p, v, f, now)
				out.lastInput = idx
				claimed = true
				continue
			}
			if in.outVC < 0 || out.creditsPerVC[in.outVC] <= 0 {
				continue
			}
			out.creditsPerVC[in.outVC]--
			r.forward(in, p, v, f, outPort, now)
			out.lastInput = idx
			claimed = true
		}
	}
}

func (r *refRouter) consume(in *refVC, p, v int, f flit, now sim.Cycle) {
	in.fifo = in.fifo[1:]
	r.returnCredit(p, v)
	if f.tail {
		in.outPort, in.outVC = -1, -1
		r.net.deliver(f.pkt, now)
	}
}

func (r *refRouter) forward(in *refVC, p, v int, f flit, outPort int, now sim.Cycle) {
	in.fifo = in.fifo[1:]
	r.returnCredit(p, v)
	next := r.neighbor[outPort]
	dstPort := r.reverse[outPort]
	dstVC := in.outVC
	if f.tail {
		r.outputs[outPort].vcHeld[dstVC] = false
		in.outPort, in.outVC = -1, -1
	}
	arrival := now + sim.Cycle(r.cfg.LinkCycles)
	noc.ScheduleAt(r.net.engine, next.id, arrival, func(at sim.Cycle) {
		next.acceptFlit(dstPort, dstVC, f, at)
	})
}

func (r *refRouter) returnCredit(p, v int) {
	if p == portLocal {
		r.net.vcCredits[r.id][v]++
		return
	}
	up := r.neighbor[p]
	if up == nil {
		return
	}
	up.outputs[r.reverse[p]].creditsPerVC[v]++
}
