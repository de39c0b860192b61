// Package memory models the off-chip memory system: address-interleaved
// controllers attached to specific mesh nodes, each with a service queue,
// a bandwidth-limited channel, and the paper's 200-cycle access latency.
// Total bandwidth is configurable to reproduce Table 4's 8.8 vs 52.8 GB/s
// comparison.
package memory

import (
	"fmt"
	"math"
	"slices"

	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/sim"
)

// Config sizes the memory system.
type Config struct {
	Channels      int     // 4 at 16 nodes, 8 at 64 (Table 3)
	TotalGBps     float64 // aggregate bandwidth (8.8 default, 52.8 in Table 4)
	CoreGHz       float64 // for bandwidth->cycles conversion (3.3)
	LatencyCycles int     // access latency (200)
}

// PaperMemory returns the default evaluation configuration.
func PaperMemory(channels int) Config {
	return Config{Channels: channels, TotalGBps: 8.8, CoreGHz: 3.3, LatencyCycles: 200}
}

// LineOccupancyCycles returns how many cycles one 64-byte line transfer
// occupies a single channel.
func (c Config) LineOccupancyCycles() sim.Cycle { return sim.Cycle(c.lineOccupancy()) }

// lineOccupancy is LineOccupancyCycles before the conversion to a cycle
// count: rounded half up, and past any cycle count (or +Inf) for a
// bandwidth that vanishes.
func (c Config) lineOccupancy() float64 {
	perChannel := c.TotalGBps / float64(c.Channels) // GB/s
	bytesPerCycle := perChannel / c.CoreGHz         // bytes per core cycle
	return math.Floor(float64(cache.LineSize)/bytesPerCycle + 0.5)
}

// Validate reports a bandwidth a run cannot use: one whose line transfer
// is not a finite, non-negative cycle count of at most maxCycles. It
// checks before the conversion to sim.Cycle, which a float past the
// int64 range would wrap to a negative delay.
func (c Config) Validate(maxCycles sim.Cycle) error {
	if occ := c.lineOccupancy(); !(occ >= 0 && occ <= float64(maxCycles)) {
		return fmt.Errorf("memory: %v GB/s over %d channels holds a channel %.3g cycles per %d-byte line, not a cycle count in [0, %d]",
			c.TotalGBps, c.Channels, occ, cache.LineSize, maxCycles)
	}
	return nil
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

// MaxChannels is the most channels a dim x dim system attaches to
// distinct nodes: past it AttachNodes repeats a node, and the channel
// there would add nothing but a share of the bandwidth divided among
// Channels.
func MaxChannels(dim int) int {
	nodes := AttachNodes(dim, 8)
	for i, node := range nodes {
		if slices.Contains(nodes[:i], node) {
			return i
		}
	}
	return len(nodes)
}

// Controller is one memory channel attached to a node.
type Controller struct {
	node      int
	cfg       Config
	occupancy sim.Cycle // cfg.LineOccupancyCycles(), computed once
	engine    *sim.Engine
	send      func(coherence.Msg)
	nextFree  sim.Cycle
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
// injects reply messages into the interconnect. Given the controller of a
// finished simulation, which no one uses any more, it resets and returns
// that one, keeping its read queue's storage.
func NewController(node int, cfg Config, engine *sim.Engine, send func(coherence.Msg), donor ...*Controller) *Controller {
	var c *Controller
	if len(donor) > 0 && donor[0] != nil {
		c = donor[0]
		*c = Controller{reads: c.reads[:0], replyFn: c.replyFn}
	} else {
		c = new(Controller)
		c.replyFn = c.reply
	}
	c.node, c.cfg, c.occupancy, c.engine, c.send = node, cfg, cfg.LineOccupancyCycles(), engine, send
	return c
}

// Handle services a ReqMem (line read, replied with MemAck) or MemWrite
// (line write, no reply).
func (c *Controller) Handle(m coherence.Msg, now sim.Cycle) {
	start := now
	if c.nextFree > start {
		start = c.nextFree
	}
	c.nextFree = start + c.occupancy
	switch m.Type {
	case coherence.ReqMem:
		if c.head > 0 && c.head >= len(c.reads)/2 && len(c.reads) == cap(c.reads) {
			// Full, and at least half of it already answered: move the
			// rest to the front instead of growing.
			c.reads = c.reads[:copy(c.reads, c.reads[c.head:])]
			c.head = 0
		}
		c.reads = append(c.reads, read{home: m.From, addr: m.Addr})
		c.engine.At(c.nextFree+sim.Cycle(c.cfg.LatencyCycles), c.replyFn)
	case coherence.MemWrite:
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
