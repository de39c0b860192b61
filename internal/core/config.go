// Package core implements the paper's primary contribution: the
// free-space optical interconnect (FSOI). Every node owns dedicated
// per-destination VCSEL lanes (or a steerable phase array at 64 nodes)
// and transmits without any arbitration; packets aimed at the same
// receiver in the same slot collide (the photodetector sees the OR of the
// beams), collisions are detected through the PID/~PID header encoding,
// and senders retransmit under the W=2.7 / B=1.1 exponential backoff.
// A dedicated confirmation lane — collision-free by construction —
// acknowledges clean receipt two cycles after delivery and carries the
// §5 protocol optimizations (ack elision, boolean subscription,
// retransmission winner hints).
package core

import "fmt"

// Lane indexes the two slotted traffic lanes.
type Lane int

const (
	// LaneMeta carries 72-bit control packets (3 VCSELs -> 2-cycle slots).
	LaneMeta Lane = iota
	// LaneData carries 360-bit line packets (6 VCSELs -> 5-cycle slots).
	LaneData
	numLanes
)

// String names the lane.
func (l Lane) String() string {
	if l == LaneMeta {
		return "meta"
	}
	return "data"
}

// Optimizations toggles the §5 mechanisms individually so their effect
// can be measured (Figures 9 and 10).
type Optimizations struct {
	// AckElision uses the confirmation of an invalidation's receipt as
	// the commitment to apply it, eliminating explicit ack packets
	// (§5.1). The coherence layer consults this through the network's
	// SupportsConfirmation capability.
	AckElision bool
	// BooleanSubscription carries ll/sc boolean values over reserved
	// confirmation mini-cycles (§5.1).
	BooleanSubscription bool
	// ReceiverScheduling spaces requests so that their expected data
	// replies land in unreserved receiver slots (§5.2).
	ReceiverScheduling bool
	// WritebackSplit announces writebacks so their data packets arrive
	// in scheduled slots instead of unexpectedly (§5.2).
	WritebackSplit bool
	// RetransmitHints lets a data-lane receiver guess the collision
	// participants and beam a winner notification so one sender retries
	// immediately (§5.2).
	RetransmitHints bool
}

// AllOptimizations enables every §5 mechanism.
func AllOptimizations() Optimizations {
	return Optimizations{
		AckElision:          true,
		BooleanSubscription: true,
		ReceiverScheduling:  true,
		WritebackSplit:      true,
		RetransmitHints:     true,
	}
}

// Config parameterizes the FSOI network.
type Config struct {
	Nodes        int
	MetaVCSELs   int // transmit VCSELs in the meta lane (Table 3: 3)
	DataVCSELs   int // transmit VCSELs in the data lane (Table 3: 6)
	BitsPerCycle int // line bits per VCSEL per core cycle (40 Gbps @ 3.3 GHz: 12)
	Receivers    int // receivers per lane per node (Table 3: 2; at most 64)
	ConfirmDelay int // cycles from clean receipt to confirmation (2)
	WindowW      float64
	BackoffB     float64
	OutQueue     int // packets per lane outgoing queue (8)
	PhaseArray   bool
	PhaseSetup   int // extra cycle(s) when re-steering the array
	Opt          Optimizations
	// HintAccuracy is the probability that a receiver correctly
	// identifies one colliding sender from the corrupted PID pattern and
	// its outstanding-request knowledge (§7.3 measures 94%).
	HintAccuracy float64
	// WrongWinner is the probability a hint wrongly selects a node that
	// then believes it won (§7.3 measures 2.3%).
	WrongWinner float64
	// MaxBackoffSlots caps the exponential backoff window W*B^(r-1) (the
	// DESIGN.md §5 guard rail). Zero means defaultMaxBackoffSlots, so
	// hand-built configs keep working; a cap in (0, 1] is refused (see
	// Validate).
	MaxBackoffSlots float64
	// ConfirmTimeoutSlots is how many lane slots a sender waits for a
	// missing confirmation before retransmitting (the fault-injection
	// recovery path; only exercised when a FaultModel drops
	// confirmations). Zero means defaultConfirmTimeoutSlots.
	ConfirmTimeoutSlots int
}

// The backoff cap and confirmation timeout PaperConfig sets, and the
// values a zero Config field stands for.
const (
	defaultMaxBackoffSlots     = 256
	defaultConfirmTimeoutSlots = 4
)

// PaperConfig returns the evaluation configuration for the given node
// count: dedicated arrays at 16 nodes, phase-arrayed at 64.
func PaperConfig(nodes int) Config {
	return Config{
		Nodes:        nodes,
		MetaVCSELs:   3,
		DataVCSELs:   6,
		BitsPerCycle: 12,
		Receivers:    2,
		ConfirmDelay: 2,
		WindowW:      2.7,
		BackoffB:     1.1,
		OutQueue:     8,
		PhaseArray:   nodes > 16,
		PhaseSetup:   1,
		Opt:          AllOptimizations(),
		HintAccuracy: 0.94,
		WrongWinner:  0.023,

		MaxBackoffSlots:     defaultMaxBackoffSlots,
		ConfirmTimeoutSlots: defaultConfirmTimeoutSlots,
	}
}

// SlotCycles returns the slot length of a lane in core cycles: the
// serialization time of its packet at the configured lane width.
func (c Config) SlotCycles(l Lane) int {
	bits, vcsels := 72, c.MetaVCSELs
	if l == LaneData {
		bits, vcsels = 360, c.DataVCSELs
	}
	perCycle := vcsels * c.BitsPerCycle
	return (bits + perCycle - 1) / perCycle
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("core: need at least 2 nodes, have %d", c.Nodes)
	case c.MetaVCSELs < 1 || c.DataVCSELs < 1:
		return fmt.Errorf("core: lanes need at least one VCSEL")
	case c.BitsPerCycle < 1:
		return fmt.Errorf("core: BitsPerCycle must be positive")
	case c.Receivers < 1:
		return fmt.Errorf("core: need at least one receiver per lane")
	case c.Receivers > 64:
		// A node keeps one bit per receiver in a word (nodeState.arrMask).
		return fmt.Errorf("core: Receivers (receivers) %d is more than 64 per lane, the most a node's arrival mask holds", c.Receivers)
	case c.ConfirmDelay < 1:
		return fmt.Errorf("core: the confirmation must take at least one cycle")
	case c.WindowW < 1:
		return fmt.Errorf("core: backoff window below one slot")
	case c.BackoffB < 1:
		return fmt.Errorf("core: backoff base must be >= 1")
	case c.OutQueue < 1:
		return fmt.Errorf("core: outgoing queue must hold at least one packet")
	case c.MaxBackoffSlots < 0:
		return fmt.Errorf("core: negative backoff window cap")
	case c.MaxBackoffSlots > 0 && c.MaxBackoffSlots <= 1:
		// A retry waits ceil(u*w) slots for u in (0, 1]: with w <= 1 that
		// is always 1, so two senders that collide from the same retry
		// base collide again on every retry.
		return fmt.Errorf("core: MaxBackoffSlots (max_backoff_slots) %v caps the backoff window at one slot, where senders that collided once collide in lockstep forever; want 0 (the %d-slot default) or more than 1", c.MaxBackoffSlots, defaultMaxBackoffSlots)
	case c.ConfirmTimeoutSlots < 0:
		return fmt.Errorf("core: negative confirmation timeout")
	}
	return nil
}
