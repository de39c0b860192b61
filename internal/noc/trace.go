package noc

import (
	"fmt"
	"sort"
	"strings"

	"fsoi/internal/sim"
)

// Tracer keeps the last N delivered packets in a ring buffer for
// post-mortem inspection (fsoisim -trace).
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

// NewTracer builds a tracer holding up to n entries.
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = 64
	}
	return &Tracer{ring: make([]TraceEntry, n)}
}

// Record captures one delivery.
func (t *Tracer) Record(p *Packet, now sim.Cycle) {
	t.ring[t.next] = TraceEntry{
		At: now, ID: p.ID, Src: p.Src, Dst: p.Dst, Type: p.Type,
		Total: p.TotalLatency(), Queue: p.QueuingDelay, Sched: p.SchedulingDelay,
		Net: p.NetworkDelay, Resolve: p.ResolutionDelay, Retries: p.Retries,
	}
	t.next = (t.next + 1) % len(t.ring)
	if t.next == 0 {
		t.full = true
	}
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

// ShardedTracer keeps one delivered-packet ring per node, each the
// full requested size, so recording never crosses node (and therefore
// shard) boundaries: deliveries are recorded at the destination.
// Merged restores the single-ring view — the most recent n deliveries
// across all nodes in a canonical order — for display.
type ShardedTracer struct {
	rings []*Tracer
	n     int
}

// NewShardedTracer builds per-node rings of up to n entries each.
func NewShardedTracer(nodes, n int) *ShardedTracer {
	if n <= 0 {
		n = 64
	}
	st := &ShardedTracer{rings: make([]*Tracer, nodes), n: n}
	for i := range st.rings {
		st.rings[i] = NewTracer(n)
	}
	return st
}

// For returns the ring owned by a node. A nil tracer returns nil, so
// call sites keep the single nil-check idiom.
func (t *ShardedTracer) For(node int) *Tracer {
	if t == nil || node < 0 || node >= len(t.rings) {
		return nil
	}
	return t.rings[node]
}

// Merged collapses the per-node rings into one ring of the requested
// size: all retained entries sorted by (At, ID, Src) — a total order,
// since packet IDs are unique — with the ring keeping the most recent
// n. The sort key never mentions a shard, so the merged trace is
// identical at every shard and worker count.
func (t *ShardedTracer) Merged() *Tracer {
	var all []TraceEntry
	for _, r := range t.rings {
		all = append(all, r.Entries()...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		if all[i].ID != all[j].ID {
			return all[i].ID < all[j].ID
		}
		return all[i].Src < all[j].Src
	})
	out := NewTracer(t.n)
	for _, e := range all {
		out.ring[out.next] = e
		out.next = (out.next + 1) % len(out.ring)
		if out.next == 0 {
			out.full = true
		}
	}
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
