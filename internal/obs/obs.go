// Package obs is the deterministic packet-lifecycle observability
// layer: every packet moving through an interconnect emits cycle-stamped
// lifecycle events (inject, tx-start, retransmit, collision, backoff,
// confirmation-drop, deliver) into a Recorder, which exports them
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

// ClassName names a packet class with its stable on-wire identifier.
func ClassName(c uint8) string { return classNames[classSlot(c)] }

// LaneName names a lane with its stable on-wire identifier.
func LaneName(l int8) string { return laneNames[laneSlot(l)] }

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
// times and copies none already held. Each event is stored with its
// owner, the node that emitted it (EmitAs; Emit's owner is node 0).
// Events arrive in the order the engine fires them, non-decreasing in
// cycle but arbitrary among one cycle's nodes; settle restores the
// canonical order (cycle, owner, that owner's emission order) in place,
// and every reader settles first.
// A limit bounds what is held, not only what is read: the log admits
// events until limit are held, then only those of the cycle the limit was
// reached in (any may be among the canonical first limit, which is what
// readers see); the rest, held or not, is Lost.
// A nil *Recorder is the disabled state: one nil check at an emission site.
type Recorder struct {
	head, tail *chunk
	n          int       // events held; the tail chunk holds the last (n-1)%chunkEvents+1
	last       sim.Cycle // cycle of the last event admitted
	unsorted   bool      // some event was admitted below its predecessor's cycle
	settled    int       // n when settle last ran
	flat       []Event   // Events' copy of the log as it read with flatN events held
	flatN      int
	limit      int
	lost       int64 // events refused
}

// chunkEvents is the capacity of one chunk: 10.5 KB, little to waste on a
// short log and an allocation per few hundred emissions on a busy one.
const chunkEvents = 256

// MaxNodes is how many nodes a recording tells apart: an owner is 16 bits.
const MaxNodes = 1 << 16

// chunk is one link of a log. The links come first so that the garbage
// collector's scan of a chunk ends after two words. owner[i] is the node
// that emitted ev[i]: beside the event, so that Event stays as it is, and
// narrow, so that a chunk stays in the size class its events put it in.
type chunk struct {
	next, prev *chunk
	ev         [chunkEvents]Event
	owner      [chunkEvents]uint16
}

// NewRecorder builds a recorder reading at most limit events (<= 0 means
// unbounded); the rest are counted in Lost.
func NewRecorder(limit int) *Recorder { return &Recorder{limit: limit} }

// Emit appends one event owned by node 0.
func (r *Recorder) Emit(e Event) { r.EmitAs(0, e) }

// EmitAs appends one event emitted by node, which is in [0, MaxNodes):
// the node orders it among its cycle's events.
func (r *Recorder) EmitAs(node int, e Event) {
	if r.limit > 0 && r.n >= r.limit && e.At != r.last {
		r.lost++
		return
	}
	if e.At < r.last {
		r.unsorted = true
	}
	r.last = e.At
	i := r.n % chunkEvents
	if i == 0 {
		c := &chunk{prev: r.tail}
		if r.tail == nil {
			r.head = c
		} else {
			r.tail.next = c
		}
		r.tail = c
	}
	r.tail.ev[i], r.tail.owner[i] = e, uint16(node)
	r.n++
}

// each visits every event held, with its owner, in the order they lie in.
func (r *Recorder) each(visit func(c *chunk, i int)) {
	for c, left := r.head, r.n; c != nil; c, left = c.next, left-chunkEvents {
		for i := range c.ev[:min(left, chunkEvents)] {
			visit(c, i)
		}
	}
}

// settle puts the log in canonical order: one pass that moves each event
// down past the events of its own cycle with a higher owner, across chunk
// edges as within them (a stable insertion sort: a cycle's events are few
// and each node's arrive in order). Settling twice moves nothing.
func (r *Recorder) settle() {
	if r.settled == r.n {
		return
	}
	r.settled = r.n
	if r.unsorted {
		r.sortAll()
		return
	}
	r.each(func(c *chunk, i int) {
		e, o := c.ev[i], c.owner[i]
		for moved := false; ; moved = true {
			below, j := c, i-1
			if j < 0 {
				below, j = c.prev, chunkEvents-1
			}
			if below == nil || below.ev[j].At != e.At || below.owner[j] <= o {
				if moved {
					c.ev[i], c.owner[i] = e, o
				}
				return
			}
			c.ev[i], c.owner[i], c, i = below.ev[j], below.owner[j], below, j
		}
	})
}

// sortAll settles a log not emitted in cycle order, which an engine's
// never is: a stable sort of everything held by (cycle, owner).
func (r *Recorder) sortAll() {
	type owned struct {
		Event
		owner uint16
	}
	all := make([]owned, 0, r.n)
	r.each(func(c *chunk, i int) { all = append(all, owned{c.ev[i], c.owner[i]}) })
	slices.SortStableFunc(all, func(a, b owned) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.owner, b.owner))
	})
	r.each(func(c *chunk, i int) { c.ev[i], c.owner[i], all = all[0].Event, all[0].owner, all[1:] })
}

// run walks events a segment at a time. cur is the segment being read,
// empty once the walk is over; copying a run forks the walk.
type run struct {
	cur  []Event
	next *chunk
	left int // events still to come after cur
}

// run settles the log and starts a walk at its first event.
func (r *Recorder) run() run {
	if r == nil {
		return run{}
	}
	r.settle()
	w := run{next: r.head, left: r.Len()}
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
	if r.limit > 0 && r.n > r.limit {
		return r.limit
	}
	return r.n
}

// Lost reports how many events the limit discarded.
func (r *Recorder) Lost() int64 {
	if r == nil {
		return 0
	}
	return r.lost + int64(r.n-r.Len())
}

// Events returns the recorded events in canonical order as one slice, a
// copy the log keeps: it stays valid, and a second call returns it again,
// until the next Emit. The exports and the detector read the chunks.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.flatN != r.n {
		flat := make([]Event, 0, r.Len())
		for w := r.run(); len(w.cur) > 0; w.advance() {
			flat = append(flat, w.cur...)
		}
		r.flat, r.flatN = flat, r.n
	}
	return r.flat
}

// CountByKind tallies events per kind in kind order.
func (r *Recorder) CountByKind() [numKinds]int64 {
	var out [numKinds]int64
	for w := r.run(); len(w.cur) > 0; w.advance() {
		for _, e := range w.cur {
			if int(e.Kind) < len(out) {
				out[e.Kind]++
			}
		}
	}
	return out
}
