// Package cache provides the set-associative cache arrays used by the L1
// controllers; misses are tracked by the controller's own transaction
// table. Lines are tracked at 64-byte granularity (the paper's L2 line
// size; the 32-byte L1 lines of Table 3 are unified to 64 bytes here to
// avoid sub-line coherence — recorded as a substitution in DESIGN.md).
package cache

import "fmt"

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

// Line is one resident cache line.
type Line struct {
	Addr  LineAddr
	State State
	lru   uint64
}

// Cache is a set-associative array with LRU replacement. All sets share
// one backing array: set s is lines[s*ways : (s+1)*ways].
type Cache struct {
	lines   []Line
	ways    int
	setMask uint64
	clock   uint64
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
			c.clock++
			l.lru = c.clock
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
	c.clock++
	if l := c.Peek(addr); l != nil {
		l.State = st
		l.lru = c.clock
		return Line{}
	}
	v := c.Victim(addr)
	evicted = *v
	*v = Line{Addr: addr, State: st, lru: c.clock}
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
