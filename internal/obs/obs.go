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
// events are recorded in simulated-time order, never stamped with host
// time, and every per-link aggregation lives in a slab behind an
// internal/table index, walked in slab order or sorted by (src, dst):
// the package holds no Go map whose iteration order could leak.
// A nil *Recorder is the disabled state — every emission site guards
// with a single nil check and the hot path allocates once per
// chunkEvents emissions.
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
// Emissions land in fixed-size chunks the recorder allocates as it fills
// them, so recording n events allocates n/chunkEvents times and never
// copies an event already held. What the recorder holds is flat followed
// by the chunks: Events folds the chunks into flat (one copy, on the
// standalone path only; Sharded.Merged reads the chunks where they lie),
// and a merged recorder is all flat from the start.
//
// The zero of *Recorder (nil) is the disabled state: emission sites
// guard with a nil check and pay nothing else.
type Recorder struct {
	flat       []Event
	head, tail *chunk // emissions since flat was last built; nil when none
	fill       int    // events in tail
	n          int    // events held, flat and chunks together
	last       sim.Cycle
	unsorted   bool // some event was emitted below its predecessor's cycle
	limit      int
	lost       int64
}

// chunkEvents is the capacity of one chunk: 10 KB of events, small enough
// that a node with a handful of events wastes little and large enough
// that a busy node allocates once per few hundred emissions.
const chunkEvents = 256

// chunk is one link of a recorder's emission list. next comes first so
// that the garbage collector's scan of a chunk ends after one word.
type chunk struct {
	next *chunk
	ev   [chunkEvents]Event
}

// NewRecorder builds a recorder holding at most limit events; limit <= 0
// means unbounded. Once full, further events are counted in Lost rather
// than silently vanishing.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Emit appends one event.
func (r *Recorder) Emit(e Event) {
	if r.limit > 0 && r.n >= r.limit {
		r.lost++
		return
	}
	if e.At < r.last {
		r.unsorted = true
	}
	r.last = e.At
	if r.tail == nil || r.fill == chunkEvents {
		c := new(chunk)
		if r.tail == nil {
			r.head = c
		} else {
			r.tail.next = c
		}
		r.tail, r.fill = c, 0
	}
	r.tail.ev[r.fill] = e
	r.fill++
	r.n++
}

// run walks a recorder's events a segment at a time: flat, then each
// chunk. cur is the segment being read, empty once the walk is over.
type run struct {
	cur  []Event
	next *chunk
	fill int // events in the last chunk, the only one not full
}

// run starts a walk at the recorder's first event.
func (r *Recorder) run() run {
	w := run{cur: r.flat, next: r.head, fill: r.fill}
	if len(w.cur) == 0 {
		w.advance()
	}
	return w
}

// advance moves to the next segment. No chunk is empty: Emit allocates
// one only to store into it.
func (w *run) advance() {
	c := w.next
	if c == nil {
		w.cur = nil
		return
	}
	w.next = c.next
	w.cur = c.ev[:]
	if c.next == nil {
		w.cur = c.ev[:w.fill]
	}
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

// Events returns the recorded events sorted by cycle, with emission
// order breaking ties (the sort is stable and emission order is itself
// deterministic under the engine, so the result is byte-stable across
// runs and worker counts). The slice is the recorder's own: it stays
// valid, and a second call returns it again, until the next Emit.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.head != nil {
		flat := make([]Event, 0, r.n)
		for w := r.run(); len(w.cur) > 0; w.advance() {
			flat = append(flat, w.cur...)
		}
		r.flat, r.head, r.tail, r.fill = flat, nil, nil, 0
	}
	if r.unsorted {
		// An engine-driven caller emits in cycle order already and never
		// gets here.
		slices.SortStableFunc(r.flat, byCycle)
		r.last, r.unsorted = r.flat[len(r.flat)-1].At, false
	}
	return r.flat
}

// byCycle orders events by cycle alone, leaving ties to a stable sort.
func byCycle(a, b Event) int { return cmp.Compare(a.At, b.At) }

// CountByKind tallies events per kind in kind order.
func (r *Recorder) CountByKind() [numKinds]int64 {
	var out [numKinds]int64
	if r == nil {
		return out
	}
	for w := r.run(); len(w.cur) > 0; w.advance() {
		for _, e := range w.cur {
			if int(e.Kind) < len(out) {
				out[e.Kind]++
			}
		}
	}
	return out
}
