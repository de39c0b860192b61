package core

import "fsoi/internal/sim"

// FaultModel lets an external injector (internal/fault) perturb the
// optical layer. The network never constructs one: with no model
// attached the fault paths are never taken, no extra randomness is
// drawn, and behaviour is bit-identical to a build without fault
// support. Implementations must be deterministic under the repository's
// named-RNG-stream discipline; the network queries them in simulation
// order only.
type FaultModel interface {
	// BitErrorRate returns the instantaneous per-bit error probability
	// for transmissions from node src (margin penalty, thermal droop).
	BitErrorRate(src int, now sim.Cycle) float64
	// SlotExtension returns the extra serialization cycles node src pays
	// on lane l because failed VCSELs reduced its effective data rate.
	SlotExtension(src int, l Lane) int
	// DropConfirm reports whether the confirmation beam for a cleanly
	// received packet from src to dst is lost, forcing src onto the
	// confirmation-timeout retransmission path.
	DropConfirm(src, dst int, now sim.Cycle) bool
}

// SetFaultModel attaches a fault injector. Passing nil detaches it.
func (n *Network) SetFaultModel(fm FaultModel) { n.fault = fm }

// pidHeaderBits is the PID/~PID-protected header length. A meta packet
// is all header (72 bits of identification and command); a data packet
// carries the same 72-bit header ahead of its payload. Errors landing in
// the header break the PID/~PID match and are misdetected as collisions
// (§4.3.1 — the paper's own detection mechanism, now exercised); errors
// in the payload pass the header check and are caught by the modelled
// CRC instead.
const pidHeaderBits = 72

// backoffCap returns the effective backoff-window cap in slots.
func (n *Network) backoffCap() float64 {
	if n.cfg.MaxBackoffSlots > 0 {
		return n.cfg.MaxBackoffSlots
	}
	return defaultMaxBackoffSlots
}

// confirmTimeoutSlots returns the effective confirmation timeout.
func (n *Network) confirmTimeoutSlots() int64 {
	if n.cfg.ConfirmTimeoutSlots > 0 {
		return int64(n.cfg.ConfirmTimeoutSlots)
	}
	return defaultConfirmTimeoutSlots
}
