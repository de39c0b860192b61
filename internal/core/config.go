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
//
// A node has two slotted lanes: meta packets of 72 bits on 3 VCSELs
// take 2-cycle slots, data packets of 360 bits on 6 VCSELs take 5-cycle
// slots. Senders are sharded across a destination's 2 receivers per
// lane. A phase array spends one extra cycle re-steering. The §5.2
// optimizations beside hints are receiver scheduling (requests spaced so
// that their replies land in unreserved slots) and split writebacks
// (announced, so their data arrives in a scheduled slot). Each one is a
// switch of Optimizations.
package core

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
	// its outstanding-request knowledge. PaperConfig sets it to what §7.3
	// measures (claim hints.accuracy in internal/exp).
	HintAccuracy float64
	// WrongWinner is the probability a hint wrongly selects a node that
	// then believes it won; PaperConfig sets it to what §7.3 measures
	// (claim hints.wrong).
	WrongWinner float64
	// MaxBackoffSlots caps the exponential backoff window W*B^(r-1) (the
	// DESIGN.md §5 guard rail), above LockstepBackoffSlots.
	MaxBackoffSlots float64
	// ConfirmTimeoutSlots is how many lane slots a sender waits for a
	// missing confirmation before retransmitting (the fault-injection
	// recovery path; only exercised when a FaultModel drops
	// confirmations).
	ConfirmTimeoutSlots int
}

// Bounds on a configuration. New refuses more receivers than a node's
// one-word arrival mask holds (nodeState.arrMask), and a backoff cap at
// or below LockstepBackoffSlots: a retry waits ceil(u*w) slots for u in
// (0, 1], so collided senders would retry in lockstep forever. A spec
// also bounds both waits by MaxWaitSlots, far past any MaxCycles and far
// from overflow, and a lane's VCSELs by its packet's bits.
const (
	MaxReceivers         = 64
	LockstepBackoffSlots = 1
	MaxWaitSlots         = 1 << 32
	MetaBits, DataBits   = 72, 360
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

		MaxBackoffSlots:     256,
		ConfirmTimeoutSlots: 4,
	}
}

// SlotCycles returns the slot length of a lane in core cycles: the
// serialization time of its packet at the configured lane width.
func (c Config) SlotCycles(l Lane) int {
	bits, vcsels := MetaBits, c.MetaVCSELs
	if l == LaneData {
		bits, vcsels = DataBits, c.DataVCSELs
	}
	perCycle := vcsels * c.BitsPerCycle
	return (bits + perCycle - 1) / perCycle
}
