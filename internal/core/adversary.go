package core

import "fsoi/internal/sim"

// AdversaryModel lets an attack roster (internal/adversary) tamper with
// the optical layer on the two paths a compromised node can reach:
// header spoofing at arrival resolution and confirmation starvation at
// clean delivery. Like FaultModel, the network never constructs one —
// with no model attached the adversary paths are never taken, no extra
// randomness is drawn, and behaviour is bit-identical to a build
// without adversary support. Implementations must be deterministic
// under the named-RNG-stream discipline; the network queries them in
// simulation order, always passing the executing node's own stream.
type AdversaryModel interface {
	// SpoofedHeader reports whether the arrival from src carries a
	// forged PID/~PID header, misdetected as a collision. Called from
	// the receiving node's context with that node's stream.
	SpoofedHeader(src int, at sim.Cycle, rng *sim.RNG) bool
	// StarveConfirm reports whether the confirmation beam for a packet
	// cleanly received at dst is suppressed, parking the sender on the
	// confirmation-timeout retransmission path. Called from the
	// receiving node's context with that node's stream.
	StarveConfirm(dst int, at sim.Cycle, rng *sim.RNG) bool
}

// SetAdversaryModel attaches an attack roster. Passing nil detaches it.
func (n *Network) SetAdversaryModel(am AdversaryModel) { n.adv = am }

// LinkObserver receives per-link contention observations — collision
// events at the receiver and backoff depths at the sender — feeding the
// detection layer's rate and depth tables (obs.Registry implements it).
type LinkObserver interface {
	NoteCollision(src, dst int)
	NoteBackoff(src, dst, attempt int)
}

// SetLinkObservers attaches one contention sink per node (nodes may
// share theirs); observations are always recorded into the executing
// node's sink, and the sinks' tallies merge exactly. Passing nil
// detaches tracking.
func (n *Network) SetLinkObservers(sinks []LinkObserver) { n.linkObs = sinks }
