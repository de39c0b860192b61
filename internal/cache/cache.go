// Package cache provides the set-associative cache arrays, with LRU
// replacement, used by the L1 controllers; misses are tracked by the
// controller's own transaction table. Lines are tracked at 64-byte
// granularity (the paper's L2 line size; the 32-byte L1 lines of Table 3
// are unified to 64 bytes here to avoid sub-line coherence — recorded as
// a substitution in DESIGN.md).
package cache

import (
	"fmt"
	"math"
)

// LineSize is the coherence granularity in bytes.
const LineSize = 64

// LineAddr is a line-granular address (byte address >> 6).
type LineAddr uint64

// State is a MESI line state as held by an L1 cache.
type State uint8

// MESI stable states. Transient states live in the controllers, not the
// array.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one resident cache line, 16 bytes.
type Line struct {
	Addr  LineAddr
	lru   uint32
	State State
}

// Cache is a set-associative array with LRU replacement. All sets share
// one backing array: set s is lines[s*ways : (s+1)*ways].
type Cache struct {
	lines   []Line
	ways    int
	setMask uint64
	clock   uint32
}

// New builds a cache with the given capacity in lines and associativity.
// Lines must be a power-of-two multiple of ways.
func New(lines, ways int) *Cache {
	if lines <= 0 || ways <= 0 || lines%ways != 0 {
		panic("cache: capacity must be a positive multiple of ways")
	}
	nsets := lines / ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", nsets))
	}
	return &Cache{lines: make([]Line, lines), ways: ways, setMask: uint64(nsets - 1)}
}

// Reset empties the array and winds the LRU clock back to 0, leaving
// the cache as New(lines, ways) built it, in the same storage.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
}

// tick advances the LRU clock and returns its new value. Before the 32-bit
// clock would wrap, every set's lines are renumbered 1..ways in their
// present LRU order; Victim only compares stamps within one set, so it
// chooses exactly as it would with a clock that never wraps.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber replaces each line's stamp by its rank in its set (oldest 1,
// equal stamps in way order) and restarts the clock after the highest.
func (c *Cache) renumber() {
	rank := make([]uint32, c.ways)
	for lo := 0; lo < len(c.lines); lo += c.ways {
		set := c.lines[lo : lo+c.ways]
		for i := range set {
			rank[i] = 1
			for j := range set {
				if set[j].lru < set[i].lru || set[j].lru == set[i].lru && j < i {
					rank[i]++
				}
			}
		}
		for i := range set {
			set[i].lru = rank[i]
		}
	}
	c.clock = uint32(c.ways)
}

// set returns the ways addr maps to, in way order.
func (c *Cache) set(addr LineAddr) []Line {
	lo := int(uint64(addr)&c.setMask) * c.ways
	return c.lines[lo : lo+c.ways : lo+c.ways]
}

// Lookup returns the resident line for addr, or nil. It refreshes LRU.
func (c *Cache) Lookup(addr LineAddr) *Line {
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.State != Invalid && l.Addr == addr {
			l.lru = c.tick()
			return l
		}
	}
	return nil
}

// Peek returns the resident line without touching LRU.
func (c *Cache) Peek(addr LineAddr) *Line {
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.State != Invalid && l.Addr == addr {
			return l
		}
	}
	return nil
}

// Victim returns the line that would be evicted to make room for addr:
// an invalid way if one exists, else the LRU way. The returned pointer
// aliases the array; the caller installs the new line through it.
func (c *Cache) Victim(addr LineAddr) *Line {
	set := c.set(addr)
	var victim *Line
	for i := range set {
		l := &set[i]
		if l.State == Invalid {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Install places addr in the array with the given state, returning the
// evicted line's previous contents (Addr valid only when State !=
// Invalid). If addr is already resident its state is updated in place —
// a set must never hold two copies of one line.
func (c *Cache) Install(addr LineAddr, st State) (evicted Line) {
	now := c.tick()
	if l := c.Peek(addr); l != nil {
		l.State = st
		l.lru = now
		return Line{}
	}
	v := c.Victim(addr)
	evicted = *v
	*v = Line{Addr: addr, State: st, lru: now}
	return evicted
}

// Invalidate removes addr if resident, reporting its prior state.
func (c *Cache) Invalidate(addr LineAddr) State {
	if l := c.Peek(addr); l != nil {
		st := l.State
		l.State = Invalid
		return st
	}
	return Invalid
}
