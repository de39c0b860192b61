// Package obs is the deterministic packet-lifecycle observability
// layer: every packet moving through an interconnect emits cycle-stamped
// lifecycle events (inject, tx-start, retransmit, collision, backoff,
// confirmation-drop, deliver, drop) into a Recorder, which exports them
// as sorted JSONL and Chrome trace-event JSON and feeds a registry of
// percentile latency tables (p50/p90/p99/p999 per packet class and per
// src->dst link) that extends the paper's Figure 5 reporting.
//
// The package obeys the same determinism rules as the simulation
// packages (fsoilint's detsource/maporder analyzers enforce them):
// events are appended in simulated-time order, never stamped with host
// time, and every map-backed aggregation iterates in sorted key order.
// A nil *Recorder is the disabled state — every emission site guards
// with a single nil check and the hot path allocates nothing.
package obs

import (
	"cmp"
	"fmt"
	"slices"

	"fsoi/internal/sim"
)

// Kind classifies one lifecycle event.
type Kind uint8

// Lifecycle event kinds, in the order a packet experiences them.
const (
	// KindInject marks the packet being accepted by the network.
	KindInject Kind = iota
	// KindTxStart marks the first transmission attempt entering a slot.
	KindTxStart
	// KindRetransmit marks a repeated attempt entering a slot.
	KindRetransmit
	// KindCollision marks an attempt that ended in a (possibly
	// misdetected) collision at the receiver.
	KindCollision
	// KindBackoff marks a retry being scheduled; Aux carries the slot
	// index the retry becomes eligible in.
	KindBackoff
	// KindConfirmDrop marks a lost confirmation beam: the payload landed
	// but the sender rides the confirmation-timeout retransmission path.
	KindConfirmDrop
	// KindDeliver marks final delivery; Aux carries the end-to-end
	// latency in cycles.
	KindDeliver
	// KindDrop marks the network permanently giving up on a packet after
	// retry exhaustion; Aux carries the attempt count it died with.
	KindDrop
	// KindFault marks a start-of-life physical fault annotation (failed
	// VCSELs); Aux carries the failure count, Src the afflicted node.
	KindFault
	numKinds
)

// String names the kind with the stable on-wire identifier used in the
// JSONL export.
func (k Kind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindTxStart:
		return "tx-start"
	case KindRetransmit:
		return "retransmit"
	case KindCollision:
		return "collision"
	case KindBackoff:
		return "backoff"
	case KindConfirmDrop:
		return "confirm-drop"
	case KindDeliver:
		return "deliver"
	case KindDrop:
		return "drop"
	case KindFault:
		return "fault"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind inverts String: it maps an on-wire identifier from the
// JSONL export back to its Kind (false for unknown names), letting
// cmd/fsoitrace rebuild events for offline detection.
func ParseKind(s string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Packet classes, mirroring noc.PacketType without importing it (obs
// sits below every network package in the dependency order).
const (
	// ClassMeta is a short control packet.
	ClassMeta uint8 = 0
	// ClassData is a long cache-line packet.
	ClassData uint8 = 1
)

// ClassName names a packet class with its stable on-wire identifier.
func ClassName(c uint8) string {
	if c == ClassData {
		return "data"
	}
	return "meta"
}

// LaneNone marks events that do not belong to a slotted lane.
const LaneNone int8 = -1

// LaneName names a lane with its stable on-wire identifier.
func LaneName(l int8) string {
	switch l {
	case 0:
		return "meta"
	case 1:
		return "data"
	}
	return "-"
}

// Event is one cycle-stamped lifecycle observation.
type Event struct {
	// At is the simulated cycle of the event.
	At sim.Cycle
	// ID is the packet id (0 for non-packet events such as KindFault).
	ID uint64
	// Aux is kind-specific: deliver latency, backoff retry slot, drop
	// attempt count, fault failure count; 0 elsewhere.
	Aux int64
	// Src and Dst are the packet endpoints (Dst is -1 when absent).
	Src, Dst int32
	// Attempt is the transmission attempt the event belongs to (0 on the
	// first attempt).
	Attempt int32
	// Kind classifies the event.
	Kind Kind
	// Class is the packet class (ClassMeta or ClassData).
	Class uint8
	// Lane is the slotted lane (0 meta, 1 data, LaneNone otherwise).
	Lane int8
}

// Recorder accumulates lifecycle events for one simulation run. Events
// must be emitted in non-decreasing simulated time, which every caller
// driven by a sim.Engine does naturally; Events re-establishes the
// invariant with a stable sort so exports are deterministically ordered
// even if a caller violates it.
//
// The zero of *Recorder (nil) is the disabled state: emission sites
// guard with a nil check and pay nothing else.
type Recorder struct {
	events []Event
	limit  int
	lost   int64
	sorted bool
}

// NewRecorder builds a recorder holding at most limit events; limit <= 0
// means unbounded. Once full, further events are counted in Lost rather
// than silently vanishing.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Emit appends one event.
func (r *Recorder) Emit(e Event) {
	if r.limit > 0 && len(r.events) >= r.limit {
		r.lost++
		return
	}
	r.sorted = false
	r.events = append(r.events, e)
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Lost reports how many events the limit discarded.
func (r *Recorder) Lost() int64 {
	if r == nil {
		return 0
	}
	return r.lost
}

// Events returns the recorded events sorted by cycle, with emission
// order breaking ties (the sort is stable and emission order is itself
// deterministic under the engine, so the result is byte-stable across
// runs and worker counts).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.sorted {
		// An engine-driven caller emits in cycle order already, so the
		// usual cost is this one linear check.
		if !slices.IsSortedFunc(r.events, byCycle) {
			slices.SortStableFunc(r.events, byCycle)
		}
		r.sorted = true
	}
	return r.events
}

// byCycle orders events by cycle alone, leaving ties to a stable sort.
func byCycle(a, b Event) int { return cmp.Compare(a.At, b.At) }

// CountByKind tallies events per kind in kind order.
func (r *Recorder) CountByKind() [numKinds]int64 {
	var out [numKinds]int64
	if r == nil {
		return out
	}
	for _, e := range r.events {
		if int(e.Kind) < len(out) {
			out[e.Kind]++
		}
	}
	return out
}
