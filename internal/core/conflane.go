package core

import (
	"fsoi/internal/sim"
)

// confLane models the confirmation channel as real hardware: one VCSEL
// per node running 12 mini-cycles per core cycle. Packet-receipt
// confirmations are collision-free by construction (§4.3.2: at most one
// packet per lane per slot is received, so at most one confirmation per
// lane departs per slot), but they still occupy mini-cycles; boolean
// subscription traffic (§5.1) rides *reserved* mini-cycles, and the
// reservation table here tracks which of the 12 offsets each (owner,
// subscriber) pair has claimed — the paper's "the information is encoded
// in the relative position of the mini-cycle".
type confLane struct {
	miniPerCycle int
	// busyUntil, per source node, is the next free mini-cycle index
	// (absolute: cycle*miniPerCycle + offset).
	busyUntil []int64
	// reserved[owner] maps a mini-cycle offset to the subscriber that
	// claimed it; offset 0 is never reserved (receipt confirmations get
	// priority there). An owner's map is made by its first reservation.
	reserved []map[int]int
	// nextOffset rotates reservation offsets per owner.
	nextOffset []int
}

func newConfLane(nodes, miniPerCycle int) *confLane {
	return &confLane{
		miniPerCycle: miniPerCycle,
		busyUntil:    make([]int64, nodes),
		reserved:     make([]map[int]int, nodes),
		nextOffset:   make([]int, nodes),
	}
}

// reset frees every mini-cycle and reservation at miniPerCycle mini-cycles
// per cycle; an owner's emptied map stays made.
func (c *confLane) reset(miniPerCycle int) {
	c.miniPerCycle = miniPerCycle
	clear(c.busyUntil)
	clear(c.nextOffset)
	for _, m := range c.reserved {
		clear(m)
	}
}

// sendDelay returns the extra whole cycles (beyond the base confirmation
// delay) a transmission from src must wait for a free mini-cycle, and
// marks the channel busy. With 12 mini-cycles per cycle the channel
// almost never backs up, but a burst of confirmations from one node
// does wait its turn.
func (c *confLane) sendDelay(src int, now sim.Cycle, minis int) sim.Cycle {
	abs := int64(now) * int64(c.miniPerCycle)
	start := abs
	if c.busyUntil[src] > start {
		start = c.busyUntil[src]
	}
	c.busyUntil[src] = start + int64(minis)
	return sim.Cycle((start - abs) / int64(c.miniPerCycle))
}

// reserve grants subscriber a mini-cycle offset on owner's confirmation
// lane, returning the offset or -1 when every offset is taken. An
// existing reservation by the same subscriber is returned unchanged.
func (c *confLane) reserve(owner, subscriber int) int {
	// Scan offsets in numeric order rather than ranging the reservation
	// map: an existing reservation must be found the same way every run.
	for off := 1; off < c.miniPerCycle; off++ {
		if sub, ok := c.reserved[owner][off]; ok && sub == subscriber {
			return off
		}
	}
	for i := 1; i < c.miniPerCycle; i++ {
		off := 1 + (c.nextOffset[owner]+i)%(c.miniPerCycle-1)
		if _, taken := c.reserved[owner][off]; !taken {
			if c.reserved[owner] == nil {
				c.reserved[owner] = make(map[int]int)
			}
			c.reserved[owner][off] = subscriber
			c.nextOffset[owner] = off
			return off
		}
	}
	return -1
}
