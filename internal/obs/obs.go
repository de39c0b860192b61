// Package obs is the deterministic packet-lifecycle observability
// layer: every packet moving through an interconnect emits cycle-stamped
// lifecycle events (inject, tx-start, retransmit, collision, backoff,
// confirmation-drop, deliver) into a Recorder, which exports them in
// firing order as JSONL and Chrome trace-event JSON and folds into a
// registry of percentile latency tables (p50/p90/p99/p999 per packet
// class and per src->dst link) that extends the paper's Figure 5
// reporting.
//
// The package obeys the same determinism rules as the simulation
// packages (fsoilint's detsource/maporder analyzers enforce them):
// events are recorded in simulated-time order, never stamped with host
// time, and every per-link aggregation lives in a slab behind an
// internal/table index, walked in slab order or sorted by (src, dst):
// the package holds no Go map whose iteration order could leak.
// A nil *Recorder is the disabled state — every emission site guards
// with a single nil check and the hot path allocates once per
// chunkEvents emissions.
package obs

import (
	"fmt"

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

// LaneNone marks events that do not belong to a slotted lane.
const LaneNone int8 = -1

// classNames and laneNames are the stable on-wire identifiers of packet
// classes and lanes, at the positions classSlot and laneSlot give: every
// value has one of these names, so an export can precompute the text
// around each.
var (
	classNames = [...]string{"meta", "data"}
	laneNames  = [...]string{"meta", "data", "-"}
)

// classSlot is c's position in classNames: ClassData is "data", every
// other value "meta".
func classSlot(c uint8) int {
	if c == ClassData {
		return 1
	}
	return 0
}

// laneSlot is l's position in laneNames: lanes 0 and 1 are named, every
// other value is "-".
func laneSlot(l int8) int {
	if uint8(l) < 2 {
		return int(l)
	}
	return 2
}

// Event is one cycle-stamped lifecycle observation.
type Event struct {
	// At is the simulated cycle of the event.
	At sim.Cycle
	// ID is the packet id (0 for non-packet events such as KindFault).
	ID uint64
	// Aux is kind-specific: deliver latency, backoff retry slot, fault
	// failure count; 0 elsewhere.
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

// Recorder is an event log: what emission sites append to and what the
// exports read. It holds lifecycle events in fixed-size chunks it
// allocates as it fills them: recording n events allocates n/chunkEvents
// times and copies none already held. Events arrive in non-decreasing
// cycle, which the engine's firing order guarantees, and the log keeps
// them in that order: it only appends.
// A limit keeps the first limit events; the rest are Lost.
// A nil *Recorder is the disabled state: one nil check at an emission site.
type Recorder struct {
	head, tail *chunk
	n          int     // events held; the tail chunk holds the last (n-1)%chunkEvents+1
	flat       []Event // Events' copy of the log as it read with flatN events held
	flatN      int
	limit      int
	lost       int64 // events refused
}

// chunkEvents is the capacity of one chunk: 10 KB, little to waste on a
// short log and an allocation per few hundred emissions on a busy one.
const chunkEvents = 256

// chunk is one link of a log. next comes first so that the garbage
// collector's scan of a chunk ends after one word.
type chunk struct {
	next *chunk
	ev   [chunkEvents]Event
}

// NewRecorder builds a recorder holding the first limit events (<= 0
// means unbounded); the rest are counted in Lost.
func NewRecorder(limit int) *Recorder { return &Recorder{limit: limit} }

// Emit appends one event.
func (r *Recorder) Emit(e Event) {
	if r.limit > 0 && r.n >= r.limit {
		r.lost++
		return
	}
	i := r.n % chunkEvents
	if i == 0 {
		c := new(chunk)
		if r.tail == nil {
			r.head = c
		} else {
			r.tail.next = c
		}
		r.tail = c
	}
	r.tail.ev[i] = e
	r.n++
}

// run walks events a segment at a time. cur is the segment being read,
// empty once the walk is over; copying a run forks the walk.
type run struct {
	cur  []Event
	next *chunk
	left int // events still to come after cur
}

// run starts a walk at the log's first event.
func (r *Recorder) run() run {
	if r == nil {
		return run{}
	}
	w := run{next: r.head, left: r.n}
	w.advance()
	return w
}

// advance moves to the next segment.
func (w *run) advance() {
	m := min(w.left, chunkEvents)
	if m == 0 {
		w.cur = nil
		return
	}
	w.cur, w.next, w.left = w.next.ev[:m], w.next.next, w.left-m
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Lost reports how many events the limit discarded.
func (r *Recorder) Lost() int64 {
	if r == nil {
		return 0
	}
	return r.lost
}

// Events returns the recorded events in firing order as one slice, a
// copy the log keeps: it stays valid, and a second call returns it again,
// until the next Emit. The exports and the detector read the chunks.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.flatN != r.n {
		flat := make([]Event, 0, r.n)
		for w := r.run(); len(w.cur) > 0; w.advance() {
			flat = append(flat, w.cur...)
		}
		r.flat, r.flatN = flat, r.n
	}
	return r.flat
}
