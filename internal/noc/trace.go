package noc

import (
	"fmt"
	"strings"

	"fsoi/internal/sim"
)

// Tracer keeps the last N delivered packets in the order they were
// recorded, for post-mortem inspection (fsoisim -trace): a ring, oldest
// first from next.
type Tracer struct {
	ring []TraceEntry
	next int
	full bool
}

// TraceEntry is one delivered packet's summary.
type TraceEntry struct {
	At      sim.Cycle
	ID      uint64
	Src     int
	Dst     int
	Type    PacketType
	Total   int64
	Queue   int64
	Sched   int64
	Net     int64
	Resolve int64
	Retries int
}

// MaxTraceEntries is the largest tracer a spec may ask for, allocated whole.
const MaxTraceEntries = 1 << 16

// NewTracer builds a tracer holding up to n entries, n at least 1.
func NewTracer(n int) *Tracer {
	return &Tracer{ring: make([]TraceEntry, n)}
}

// Record captures one delivery in the oldest slot.
func (t *Tracer) Record(p *Packet, now sim.Cycle) {
	t.ring[t.next] = TraceEntry{
		At: now, ID: p.ID, Src: p.Src, Dst: p.Dst, Type: p.Type,
		Total: p.TotalLatency(), Queue: p.QueuingDelay, Sched: p.SchedulingDelay,
		Net: p.NetworkDelay, Resolve: p.ResolutionDelay, Retries: p.Retries,
	}
	t.next = (t.next + 1) % len(t.ring)
	t.full = t.full || t.next == 0
}

// Entries returns the captured packets, oldest first.
func (t *Tracer) Entries() []TraceEntry {
	if !t.full {
		return t.ring[:t.next]
	}
	out := make([]TraceEntry, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// String renders the trace as a table. Every packet in it was
// delivered, which its status column says.
func (t *Tracer) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %-4s %-4s %-5s %-9s %-6s %-6s %-6s %-6s %-7s %s\n",
		"cycle", "id", "src", "dst", "type", "status", "total", "queue", "sched", "net", "resolve", "retries")
	for _, e := range t.Entries() {
		fmt.Fprintf(&b, "%-10d %-8d %-4d %-4d %-5s %-9s %-6d %-6d %-6d %-6d %-7d %d\n",
			e.At, e.ID, e.Src, e.Dst, e.Type, "delivered", e.Total, e.Queue, e.Sched, e.Net, e.Resolve, e.Retries)
	}
	return b.String()
}
