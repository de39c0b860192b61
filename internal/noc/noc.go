// Package noc defines the abstractions shared by every interconnect
// implementation in this repository (the FSOI network, the electrical
// mesh baselines, the corona-style ring, and the ideal networks): packets,
// lanes, the Network interface the coherence substrate talks to, and the
// per-packet latency breakdown reported in the paper's Figures 6 and 7.
package noc

import (
	"fmt"

	"fsoi/internal/sim"
	"fsoi/internal/stats"
)

// PacketType separates the two traffic classes the paper slots
// independently: short meta packets (requests, acknowledgments) and long
// data packets (cache lines).
type PacketType uint8

const (
	// Meta is a 72-bit control packet: 1 mesh flit, a 2-cycle FSOI slot.
	Meta PacketType = iota
	// Data is a 360-bit cache-line packet: 5 mesh flits, a 5-cycle slot.
	Data
	numPacketTypes
)

// String names the packet type.
func (t PacketType) String() string {
	switch t {
	case Meta:
		return "meta"
	case Data:
		return "data"
	}
	return fmt.Sprintf("PacketType(%d)", uint8(t))
}

// Bits returns the packet length on the wire.
func (t PacketType) Bits() int {
	if t == Data {
		return 360
	}
	return 72
}

// FlitBits is the mesh flit width (Table 3).
const FlitBits = 72

// Flits returns the packet length in mesh flits.
func (t PacketType) Flits() int { return t.Bits() / FlitBits }

// Packet is one message in flight. Networks annotate the latency
// breakdown fields as the packet moves; the payload is opaque to the
// network layer (the coherence substrate stores its message there).
type Packet struct {
	ID      uint64
	Src     int
	Dst     int
	Type    PacketType
	Payload any

	// IsReply marks packets that answer an earlier request; the FSOI
	// receiver-scheduling optimization exploits the predictable timing of
	// replies (§5.2).
	IsReply bool
	// IsWriteback marks eviction data, which the split-transaction
	// optimization schedules explicitly.
	IsWriteback bool
	// IsMemory marks packets to or from the memory controllers.
	IsMemory bool
	// ExpectsDataReply marks requests whose answer is a data packet; the
	// FSOI receiver-scheduling optimization spaces such requests so the
	// replies land in free receiver slots.
	ExpectsDataReply bool
	// Created is the cycle the packet was handed to the network.
	Created sim.Cycle

	// Latency breakdown, in cycles, filled in by the network.
	QueuingDelay    int64 // waiting in the source queue for lane/port
	SchedulingDelay int64 // intentional delay (slot alignment, spacing)
	NetworkDelay    int64 // serialization + flight + router pipelines
	ResolutionDelay int64 // collision resolution (FSOI) / none elsewhere
	Retries         int   // transmission attempts beyond the first
}

// TotalLatency is the end-to-end packet latency in cycles.
func (p *Packet) TotalLatency() int64 {
	return p.QueuingDelay + p.SchedulingDelay + p.NetworkDelay + p.ResolutionDelay
}

// DeliveryFunc receives packets as they arrive at their destination.
type DeliveryFunc func(p *Packet, now sim.Cycle)

// Network is the contract between the coherence substrate and an
// interconnect. Implementations are single-threaded and driven by Tick.
type Network interface {
	// Send enqueues a packet at its source node's interface. It reports
	// false when the outgoing queue is full; the caller retries later
	// (the paper's outgoing queues hold 8 packets per lane).
	Send(p *Packet) bool
	// SetDelivery installs the destination callback. Must be called
	// before the first Tick.
	SetDelivery(fn DeliveryFunc)
	// Tick advances the network one cycle.
	Tick(now sim.Cycle)
	// LatencyStats exposes the accumulated per-packet measurements.
	LatencyStats() *LatencyStats
}

// Lookaheader is optionally implemented by networks that bound how soon
// a cross-node interaction lands: at least Lookahead cycles ahead. The
// system layer sends each core's finish notice to node 0 that far
// ahead, and nothing else reads it. FSOI declares min(ConfirmDelay, slot
// lengths), corona its minimum transfer (3 cycles); the mesh its link
// traversal and the ideal networks 1.
type Lookaheader interface {
	Lookahead() sim.Cycle
}

// LatencyStats accumulates the Figure 6/7 breakdown.
type LatencyStats struct {
	Queuing    stats.Summary
	Scheduling stats.Summary
	Network    stats.Summary
	Resolution stats.Summary
	Total      stats.Summary
	ByType     [numPacketTypes]stats.Summary
	Delivered  int64
	Collisions int64 // FSOI only
	Attempts   int64 // transmissions including retries
}

// Record folds one delivered packet into the statistics.
func (l *LatencyStats) Record(p *Packet) {
	l.Queuing.Add(float64(p.QueuingDelay))
	l.Scheduling.Add(float64(p.SchedulingDelay))
	l.Network.Add(float64(p.NetworkDelay))
	l.Resolution.Add(float64(p.ResolutionDelay))
	l.Total.Add(float64(p.TotalLatency()))
	l.ByType[p.Type].Add(float64(p.TotalLatency()))
	l.Delivered++
	l.Attempts += int64(1 + p.Retries)
}

// Merge folds other into l. Networks that keep per-node accumulators
// merge them in node order at read time; the merge sequence is then a
// pure function of the node count.
func (l *LatencyStats) Merge(other *LatencyStats) {
	l.Queuing.Merge(&other.Queuing)
	l.Scheduling.Merge(&other.Scheduling)
	l.Network.Merge(&other.Network)
	l.Resolution.Merge(&other.Resolution)
	l.Total.Merge(&other.Total)
	for i := range l.ByType {
		l.ByType[i].Merge(&other.ByType[i])
	}
	l.Delivered += other.Delivered
	l.Collisions += other.Collisions
	l.Attempts += other.Attempts
}

// Breakdown returns the four mean components in figure order.
func (l *LatencyStats) Breakdown() (queuing, scheduling, network, resolution float64) {
	return l.Queuing.Mean(), l.Scheduling.Mean(), l.Network.Mean(), l.Resolution.Mean()
}

// MeanTotal returns the mean end-to-end latency.
func (l *LatencyStats) MeanTotal() float64 { return l.Total.Mean() }
