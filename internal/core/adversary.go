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
// simulation order, always passing the receiving node's own stream.
type AdversaryModel interface {
	// SpoofedHeader reports whether the arrival from src carries a
	// forged PID/~PID header, misdetected as a collision. Called with
	// the receiving node's stream.
	SpoofedHeader(src int, at sim.Cycle, rng *sim.RNG) bool
	// StarveConfirm reports whether the confirmation beam for a packet
	// cleanly received at dst is suppressed, parking the sender on the
	// confirmation-timeout retransmission path. Called with the
	// receiving node's stream.
	StarveConfirm(dst int, at sim.Cycle, rng *sim.RNG) bool
}

// SetAdversaryModel attaches an attack roster. Passing nil detaches it.
func (n *Network) SetAdversaryModel(am AdversaryModel) { n.adv = am }
