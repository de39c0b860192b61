// Package memory models the off-chip memory system: address-interleaved
// controllers attached to specific mesh nodes, each with a service queue,
// a bandwidth-limited channel, and the paper's 200-cycle access latency.
// Total bandwidth is configurable to reproduce Table 4's 8.8 vs 52.8 GB/s
// comparison.
package memory

import (
	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/sim"
	"fsoi/internal/stats"
)

// Config sizes the memory system.
type Config struct {
	Channels      int     // 4 at 16 nodes, 8 at 64 (Table 3)
	TotalGBps     float64 // aggregate bandwidth (8.8 default, 52.8 in Table 4)
	CoreGHz       float64 // for bandwidth->cycles conversion (3.3)
	LatencyCycles int     // access latency (200)
	QueueDepth    int     // per-channel request queue
}

// PaperMemory returns the default evaluation configuration.
func PaperMemory(channels int) Config {
	return Config{Channels: channels, TotalGBps: 8.8, CoreGHz: 3.3, LatencyCycles: 200, QueueDepth: 64}
}

// LineOccupancyCycles returns how many cycles one 64-byte line transfer
// occupies a single channel.
func (c Config) LineOccupancyCycles() sim.Cycle {
	perChannel := c.TotalGBps / float64(c.Channels) // GB/s
	bytesPerCycle := perChannel / c.CoreGHz         // bytes per core cycle
	return sim.Cycle(float64(cache.LineSize)/bytesPerCycle + 0.5)
}

// AttachNodes returns the mesh nodes hosting the controllers for a
// dim x dim system: spread along opposite edges like the Alpha-style
// quadrant controllers the paper describes.
func AttachNodes(dim, channels int) []int {
	nodes := make([]int, 0, channels)
	last := dim*dim - 1
	corners := []int{0, dim - 1, last - dim + 1, last}
	for i := 0; i < channels; i++ {
		if i < len(corners) {
			nodes = append(nodes, corners[i])
			continue
		}
		// Additional channels take mid-edge nodes.
		mid := []int{dim / 2, dim*dim - 1 - dim/2, dim * (dim / 2), dim*(dim/2) + dim - 1}
		nodes = append(nodes, mid[(i-len(corners))%len(mid)])
	}
	return nodes
}

// Stats counts controller activity.
type Stats struct {
	Reads, Writes int64
	QueueWait     stats.Summary
	Busy          sim.Cycle // total channel-occupied cycles
}

// Controller is one memory channel attached to a node.
type Controller struct {
	node      int
	cfg       Config
	occupancy sim.Cycle // cfg.LineOccupancyCycles(), computed once
	engine    *sim.Engine
	send      func(coherence.Msg)
	nextFree  sim.Cycle
	stats     Stats
	// reads are the line reads in progress, oldest first. A read completes
	// a fixed time after its transfer starts and transfers start in arrival
	// order, so completions come in arrival order too: each schedules the
	// one replyFn, which answers reads[head].
	reads   []read
	head    int
	replyFn func(now sim.Cycle)
}

// read is one ReqMem awaiting its MemAck.
type read struct {
	home int
	addr cache.LineAddr
}

// NewController builds a channel controller at the given node. send
// injects reply messages into the interconnect.
func NewController(node int, cfg Config, engine *sim.Engine, send func(coherence.Msg)) *Controller {
	c := &Controller{node: node, cfg: cfg, occupancy: cfg.LineOccupancyCycles(), engine: engine, send: send}
	c.replyFn = c.reply
	return c
}

// Node reports the attach point.
func (c *Controller) Node() int { return c.node }

// Stats exposes the counters.
func (c *Controller) Stats() *Stats { return &c.stats }

// Handle services a ReqMem (line read, replied with MemAck) or MemWrite
// (line write, no reply).
func (c *Controller) Handle(m coherence.Msg, now sim.Cycle) {
	start := now
	if c.nextFree > start {
		start = c.nextFree
	}
	c.stats.QueueWait.Add(float64(start - now))
	c.nextFree = start + c.occupancy
	c.stats.Busy += c.occupancy
	switch m.Type {
	case coherence.ReqMem:
		c.stats.Reads++
		if c.head > 0 && c.head >= len(c.reads)/2 && len(c.reads) == cap(c.reads) {
			// Full, and at least half of it already answered: move the
			// rest to the front instead of growing.
			c.reads = c.reads[:copy(c.reads, c.reads[c.head:])]
			c.head = 0
		}
		c.reads = append(c.reads, read{home: m.From, addr: m.Addr})
		c.engine.At(c.nextFree+sim.Cycle(c.cfg.LatencyCycles), c.replyFn)
	case coherence.MemWrite:
		c.stats.Writes++
		// Writes complete silently once the channel transfer is done.
	default:
		panic("memory: controller received " + m.Type.String())
	}
}

// reply answers the oldest read in progress.
func (c *Controller) reply(sim.Cycle) {
	r := c.reads[c.head]
	if c.head++; c.head == len(c.reads) {
		c.reads, c.head = c.reads[:0], 0
	}
	c.send(coherence.Msg{
		Type: coherence.MemAck, Addr: r.addr,
		From: c.node, To: r.home, HasData: true,
	})
}
