// Hostile operation streams: the workload-level half of the adversary
// model (internal/adversary holds the optical-layer half). Each
// adversary node runs one of these instead of its application thread.
// The streams are deterministic cpu.Streams — a pure function of the
// spec, the seed, and the node's own simulated clock — and emit no
// barriers or locks, so the honest threads synchronize among themselves
// while the attacker free-runs.

package workload

import (
	"strconv"

	"fsoi/internal/adversary"
	"fsoi/internal/cache"
	"fsoi/internal/cpu"
	"fsoi/internal/sim"
)

// AttackBase is the line region hostile streams walk. It sits well above
// the largest shared working set (SharedBase + SharedLines + locks) and
// is a multiple of every supported node count, so AttackBase + k*nodes +
// v is always homed at victim v: every attack access is an L1/L2 miss
// that lands a request on the victim's receiver.
const AttackBase cache.LineAddr = SharedBase + (1 << 20)

// attackWindowLines bounds the distinct lines walked per victim. The
// window is sized to hurt: small enough that every line stays resident
// in the victim's L2 home slice (1024 lines), so the storm is never
// throttled by memory bandwidth, yet — because the walk strides by the
// node count — spread over so few L1 sets that every wrapped access
// still misses the attacker's own cache and lands a fresh request (and
// usually an eviction writeback) on the victim.
const attackWindowLines = 1 << 8

// AdversaryStream generates one attacker's hostile operations.
type AdversaryStream struct {
	spec      adversary.Spec
	nodes     int
	rng       *sim.RNG
	clock     func() sim.Cycle
	ops       int     // remaining hostile-op budget
	seq       int     // walking line index
	vi        int     // victim rotation cursor
	rate      float64 // probability a step is an attack access
	storeFrac float64 // store share of attack accesses
}

// NewAdversaryStream builds the hostile stream for spec.Node. The op
// budget defaults to the honest application's Steps so attacker threads
// retire alongside the honest ones; clock is the node's own scheduler
// view, giving the stream the spec's start/stop cycle gating.
func NewAdversaryStream(spec adversary.Spec, honest App, nodes int, seed uint64, clock func() sim.Cycle) *AdversaryStream {
	ops := spec.Ops
	if ops == 0 {
		ops = honest.Steps
	}
	s := &AdversaryStream{
		spec:  spec,
		nodes: nodes,
		rng:   sim.NewRNG(seed).NewStream("adversary").NewStream(strconv.Itoa(spec.Node)),
		clock: clock,
		ops:   ops,
	}
	switch spec.Role {
	case adversary.RoleJammer:
		// The storm itself: mostly stores (non-blocking behind the store
		// buffer, and each ReqEx invalidates) at full intensity.
		s.rate, s.storeFrac = spec.Intensity, 0.8
	case adversary.RoleSpoofer:
		// Enough traffic to keep forged headers arriving; the damage is
		// done by the Model corrupting them on arrival.
		s.rate, s.storeFrac = spec.Intensity, 0.5
	case adversary.RoleStarver:
		// Light cover traffic; the attack is the Model suppressing
		// confirmations at the victims.
		s.rate, s.storeFrac = 0.25*spec.Intensity, 0.5
	}
	return s
}

// Next implements cpu.Stream.
func (s *AdversaryStream) Next() (cpu.Op, bool) {
	if s.ops <= 0 {
		return cpu.Op{}, false
	}
	now := s.clock()
	if now < s.spec.Start {
		// Sleep until the attack window opens (does not burn budget).
		return cpu.Op{Kind: cpu.OpCompute, Cycles: int(s.spec.Start - now)}, true
	}
	if s.spec.Stop > 0 && now >= s.spec.Stop {
		return cpu.Op{}, false
	}
	s.ops--
	if !s.rng.Bool(s.rate) {
		return cpu.Op{Kind: cpu.OpCompute, Cycles: 1}, true
	}
	v := s.spec.Victims[s.vi%len(s.spec.Victims)]
	s.vi++
	addr := AttackBase +
		cache.LineAddr(s.seq%attackWindowLines)*cache.LineAddr(s.nodes) +
		cache.LineAddr(v)
	s.seq++
	if s.rng.Bool(s.storeFrac) {
		return cpu.Op{Kind: cpu.OpStore, Addr: addr}, true
	}
	return cpu.Op{Kind: cpu.OpLoad, Addr: addr}, true
}
