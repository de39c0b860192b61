// Package mesh implements the paper's electrical baselines: a 2-D mesh of
// canonical 4-stage virtual-channel wormhole routers with credit-based
// flow control and XY routing (the "MESH" configuration of Figures 6/7),
// and the idealized L0 / Lr1 / Lr2 networks used as loose upper bounds.
// A router has 4 VCs per input port (Table 3) and a pipeline of
// RouterCycles stages; Lr1 and Lr2 charge 1 or 2 router cycles per hop
// with no contention inside the network.
package mesh

import (
	"math"
	"math/bits"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// port indices within a router.
const (
	portLocal = iota
	portNorth
	portSouth
	portEast
	portWest
	numPorts
)

// reversePort[p] is the port a router is on as seen by its neighbour on
// port p: east<->west, north<->south.
var reversePort = [numPorts]int{
	portLocal: portLocal, portNorth: portSouth, portSouth: portNorth, portEast: portWest, portWest: portEast,
}

// maskBits is the width of the occupancy words: a router's numPorts*VCs
// input VCs must fit one.
const maskBits = 64

// flit is the unit of buffering and link transfer. A buffered flit is
// inert until readyAt: neither allocation stage looks at it sooner, so a
// flit still on the link into a router can already sit in that router's
// FIFO, stamped with the cycle it will have arrived and left the pipeline.
type flit struct {
	pkt     *noc.Packet
	head    bool
	tail    bool
	readyAt sim.Cycle // arrival + RouterCycles: the pipeline releases it then
}

// vc is one virtual-channel input FIFO (at most BufferFlits deep, which
// credits enforce) and its wormhole state.
type vc struct {
	fifo    ring[flit]
	outPort int // routed output for the current packet (-1 = not routed)
	outVC   int // downstream VC held by the current packet (-1 = none)
}

// outputState tracks the downstream side of one output port.
type outputState struct {
	credits   []int  // credits available toward each downstream input VC
	held      uint64 // bit v set while downstream VC v is allocated
	lastVC    int    // round-robin pointer for VC allocation
	lastInput int    // round-robin pointer for switch allocation
}

// router is a canonical input-queued VC router. The 4-stage pipeline
// (route computation, VC allocation, switch allocation, switch traversal)
// is modeled by delaying each flit RouterCycles after arrival before it
// may traverse, with allocation contention resolved cycle by cycle.
//
// Input VCs are indexed port*VCs+lane; the masks below use the same
// index as bit position, so ascending bit order is the (port, lane)
// order allocation has always scanned in.
type router struct {
	id      int
	inputs  []vc
	outputs [numPorts]outputState
	// occupied has bit i set iff inputs[i] buffers a flit. A router
	// with occupied == 0 has nothing to allocate and is not ticked.
	occupied uint64
	// wake is the earliest cycle a tick can change anything while the
	// router buffers a flit: no front flit is out of the pipeline before
	// it, and neither stage touches one that is not. The router sits in
	// the network's calendar bucket for wake, and in no other. Stale when
	// occupied == 0; acceptFlit sets it afresh, and lowers it for a flit
	// ready sooner than the ones already here.
	wake sim.Cycle
	// want[p] has bit i set iff inputs[i] is routed to output p.
	want [numPorts]uint64
	// neighbor[p] is the router on port p, nil at mesh edges / local.
	neighbor [numPorts]*router
	net      *Network
}

// newRouter builds a router over its numPorts*VCs input VCs and output
// credits, storage New takes for all routers at once; reset gives it
// its state.
func newRouter(id int, net *Network, inputs []vc, credits []int) *router {
	r := &router{id: id, inputs: inputs, net: net}
	vcs := net.cfg.VCs
	for p := range r.outputs {
		r.outputs[p].credits = credits[p*vcs : (p+1)*vcs]
	}
	return r
}

// reset empties the router's buffers and returns every credit and
// round-robin pointer to where a new router has it.
func (r *router) reset() {
	for i := range r.inputs {
		in := &r.inputs[i]
		in.fifo.reset()
		in.outPort, in.outVC = -1, -1
	}
	for p := range r.outputs {
		out := &r.outputs[p]
		for v := range out.credits {
			out.credits[v] = r.net.cfg.BufferFlits
		}
		out.held, out.lastVC, out.lastInput = 0, 0, 0
	}
	r.occupied, r.wake = 0, 0
	r.want = [numPorts]uint64{}
}

// xyRoute computes the output port for dst under dimension-order routing.
func (r *router) xyRoute(dst int) int {
	at, to := r.net.coords[r.id], r.net.coords[dst]
	switch {
	case to.x > at.x:
		return portEast
	case to.x < at.x:
		return portWest
	case to.y > at.y:
		return portSouth
	case to.y < at.y:
		return portNorth
	default:
		return portLocal
	}
}

// acceptFlit buffers a flit that arrives on input port p, VC v at cycle
// arrival: now for the local port, a link traversal ahead for the
// others, whose sender calls it at grant time. The wake-up follows the
// earliest flit: a local flit can be ready before one already stamped
// from a link of two or more cycles.
func (r *router) acceptFlit(p, v int, f flit, arrival sim.Cycle) {
	f.readyAt = arrival + sim.Cycle(r.net.cfg.RouterCycles)
	idx := p*r.net.cfg.VCs + v
	r.inputs[idx].fifo.push(f, r.net.cfg.BufferFlits)
	idle := r.occupied == 0
	r.occupied |= 1 << idx
	if idle {
		r.schedule(f.readyAt)
	} else if f.readyAt < r.wake {
		r.unschedule()
		r.schedule(f.readyAt)
	}
}

// schedule puts the router in the calendar bucket for cycle wake.
func (r *router) schedule(wake sim.Cycle) {
	r.wake = wake
	r.net.bucket(wake)[r.id>>6] |= 1 << (r.id & 63)
}

// unschedule takes the router out of the calendar bucket for its wake.
func (r *router) unschedule() {
	r.net.bucket(r.wake)[r.id>>6] &^= 1 << (r.id & 63)
}

// pop removes the front flit of input VC idx, returns its buffer slot
// upstream, and ends the packet's hold on the VC after a tail.
func (r *router) pop(idx int, tail bool) {
	in := &r.inputs[idx]
	if in.fifo.pop(); in.fifo.n == 0 {
		r.occupied &^= 1 << idx
	}
	if tail {
		r.want[in.outPort] &^= 1 << idx
		in.outPort, in.outVC = -1, -1
	}
	r.returnCredit(int(r.net.inPort[idx]), int(r.net.inLane[idx]))
}

// tick performs one cycle of allocation and traversal. Determinism comes
// from fixed iteration order with rotating round-robin pointers. Only
// occupied VCs are visited: an empty VC takes no part in either stage,
// and no round-robin pointer moves without a grant. Network.Tick calls
// it only at cycle wake: before that every front flit is still in the
// pipeline and both stages would pass over all of them.
func (r *router) tick(now sim.Cycle) {
	// Stage 1: route computation + VC allocation for head flits at the
	// front of each input VC. Only an unrouted VC's front needs a look:
	// a routed one's packet had its head ready at routing, and that head
	// stays in front until its VC allocation lets it go. Stage 1 also
	// collects the output ports an occupied input is routed to, the only
	// ones stage 2 can grant.
	var routed uint
	for m := r.occupied; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		in := &r.inputs[idx]
		if in.outPort < 0 {
			f := in.fifo.front()
			if !f.head || f.readyAt > now {
				continue
			}
			in.outPort = r.xyRoute(f.pkt.Dst)
			r.want[in.outPort] |= 1 << idx
		}
		if in.outVC < 0 && in.outPort != portLocal {
			out := &r.outputs[in.outPort]
			if free := ^out.held & (1<<r.net.cfg.VCs - 1); free != 0 {
				cand := firstFrom(free, out.lastVC+1)
				out.held |= 1 << cand
				out.lastVC = cand
				in.outVC = cand
			}
		}
		routed |= 1 << in.outPort
	}

	// Stage 2: switch allocation + traversal. Each output accepts at most
	// one flit per cycle; each input VC sends at most one flit per cycle.
	// A grant pops only an input routed to its own output, so no grant
	// changes another output's candidates.
	for ; routed != 0; routed &= routed - 1 {
		outPort := bits.TrailingZeros(routed)
		cand := r.want[outPort] & r.occupied
		// Round-robin from lastInput+1: the bits at or above it, then
		// the wrap-around below it.
		below := uint64(1)<<(r.outputs[outPort].lastInput+1) - 1
		if hi := cand &^ below; hi == 0 || !r.grant(outPort, hi, now) {
			if lo := cand & below; lo != 0 {
				r.grant(outPort, lo, now)
			}
		}
	}

	// The next tick that can matter: the cycle the earliest front flit
	// leaves the pipeline, or the next one when a flit is ready now and
	// blocked (on a VC, a credit or the switch), which retries per cycle.
	r.unschedule()
	if r.occupied == 0 {
		return
	}
	wake := sim.Cycle(math.MaxInt64)
	for m := r.occupied; m != 0 && wake > now+1; m &= m - 1 {
		wake = min(wake, r.inputs[bits.TrailingZeros64(m)].fifo.front().readyAt)
	}
	r.schedule(max(wake, now+1))
}

// grant sends the front flit of the lowest-indexed input VC in cand that
// can use outPort this cycle, and reports whether one did.
func (r *router) grant(outPort int, cand uint64, now sim.Cycle) bool {
	out := &r.outputs[outPort]
	for ; cand != 0; cand &= cand - 1 {
		idx := bits.TrailingZeros64(cand)
		in := &r.inputs[idx]
		f := in.fifo.front()
		if f.readyAt > now {
			continue
		}
		if outPort == portLocal {
			// Ejection: consume the flit; deliver on tail.
			r.pop(idx, f.tail)
			r.net.flitsOut++
			if f.tail {
				r.net.deliver(f.pkt, now)
			}
		} else {
			if in.outVC < 0 || out.credits[in.outVC] <= 0 {
				continue
			}
			out.credits[in.outVC]--
			r.forward(idx, f, outPort, now)
		}
		out.lastInput = idx
		return true
	}
	return false
}

// forward sends a flit down the link on outPort by buffering it in the
// downstream router at once, stamped with its arrival a link traversal
// from now. The credit that grant took reserves the slot, the flit is inert
// there until it would have arrived, and this output port is the only
// feeder of that input VC, so its FIFO order is arrival order.
func (r *router) forward(idx int, f flit, outPort int, now sim.Cycle) {
	dstVC := r.inputs[idx].outVC
	if f.tail {
		// Release the downstream VC once the tail is in flight; the
		// downstream hold is released when the tail leaves that buffer,
		// approximated here by releasing on hand-off, which is safe
		// because credits still bound buffer occupancy.
		r.outputs[outPort].held &^= 1 << dstVC
	}
	r.pop(idx, f.tail)
	r.neighbor[outPort].acceptFlit(reversePort[outPort], dstVC, f, now+r.net.hop)
}

// returnCredit gives a buffer slot back to the upstream router. It never
// wakes that router: a credit only matters to a flit buffered there, and
// a router with one is already ticking.
func (r *router) returnCredit(p, v int) {
	if p == portLocal {
		r.net.injectCredit(r.id, v)
		return
	}
	up := r.neighbor[p]
	if up == nil {
		return
	}
	up.outputs[reversePort[p]].credits[v]++
}

// firstFrom returns the lowest set bit of m at or above start, wrapping
// to the lowest set bit overall; m must be non-zero.
func firstFrom(m uint64, start int) int {
	if hi := m &^ (1<<start - 1); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(m)
}
