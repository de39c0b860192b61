package cache

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refCache is the array with an LRU clock that never wraps: the model a
// Cache's 32-bit clock, renumbered before it wraps, must choose victims as.
type refCache struct {
	addr  []LineAddr
	state []State
	lru   []uint64
	ways  int
	sets  int
	clock uint64
}

func newRefCache(lines, ways int) *refCache {
	return &refCache{
		addr: make([]LineAddr, lines), state: make([]State, lines), lru: make([]uint64, lines),
		ways: ways, sets: lines / ways,
	}
}

// find returns the way holding addr, or -1.
func (r *refCache) find(addr LineAddr) int {
	lo := int(addr) % r.sets * r.ways
	for i := lo; i < lo+r.ways; i++ {
		if r.state[i] != Invalid && r.addr[i] == addr {
			return i
		}
	}
	return -1
}

// victim returns the index Victim(addr) should return.
func (r *refCache) victim(addr LineAddr) int {
	lo := int(addr) % r.sets * r.ways
	v := -1
	for i := lo; i < lo+r.ways; i++ {
		if r.state[i] == Invalid {
			return i
		}
		if v < 0 || r.lru[i] < r.lru[v] {
			v = i
		}
	}
	return v
}

func (r *refCache) lookup(addr LineAddr) bool {
	i := r.find(addr)
	if i >= 0 {
		r.clock++
		r.lru[i] = r.clock
	}
	return i >= 0
}

func (r *refCache) install(addr LineAddr, st State) (LineAddr, State) {
	r.clock++
	if i := r.find(addr); i >= 0 {
		r.state[i], r.lru[i] = st, r.clock
		return 0, Invalid
	}
	v := r.victim(addr)
	ea, es := r.addr[v], r.state[v]
	r.addr[v], r.state[v], r.lru[v] = addr, st, r.clock
	return ea, es
}

func (r *refCache) invalidate(addr LineAddr) {
	if i := r.find(addr); i >= 0 {
		r.state[i] = Invalid
	}
}

// index returns l's position in c's backing array.
func (c *Cache) index(l *Line) int {
	for i := range c.lines {
		if &c.lines[i] == l {
			return i
		}
	}
	return -1
}

// TestLRUClockWrapKeepsVictims runs a seeded script of lookups, installs
// and invalidations over a small array whose clock starts a few ticks below
// MaxUint32, and moves it back there now and then so the script crosses
// the wrap many times. After every step each address's victim must be the
// one a 64-bit clock picks.
func TestLRUClockWrapKeepsVictims(t *testing.T) {
	const lines, ways, addrs = 16, 4, 24 // 4 sets, 6 addresses each
	rng := rand.New(rand.NewSource(34))
	c, ref := New(lines, ways), newRefCache(lines, ways)
	c.clock = math.MaxUint32 - 3
	wraps := 0
	for step := 0; step < 20000; step++ {
		if step%97 == 0 && c.clock < math.MaxUint32-2 {
			// Jump both clocks forward by the same amount: only the order
			// of stamps matters, and the jump keeps it.
			d := uint64(math.MaxUint32 - 2 - c.clock)
			c.clock += uint32(d)
			ref.clock += d
		}
		before := c.clock
		a := LineAddr(rng.Intn(addrs))
		switch op := rng.Intn(8); {
		case op < 3:
			if got, want := c.Lookup(a) != nil, ref.lookup(a); got != want {
				t.Fatalf("step %d: Lookup(%d) hit %v, want %v", step, a, got, want)
			}
		case op < 7:
			st := State(1 + rng.Intn(3))
			ev := c.Install(a, st)
			if ea, es := ref.install(a, st); ev.State != es || es != Invalid && ev.Addr != ea {
				t.Fatalf("step %d: Install(%d) evicted %d in %v, want %d in %v", step, a, ev.Addr, ev.State, ea, es)
			}
		default:
			c.Invalidate(a)
			ref.invalidate(a)
		}
		if c.clock < before {
			wraps++
		}
		for b := LineAddr(0); b < addrs; b++ {
			if got, want := c.index(c.Victim(b)), ref.victim(b); got != want {
				t.Fatalf("step %d: Victim(%d) is way %d, want %d", step, b, got, want)
			}
		}
	}
	if wraps < 100 {
		t.Fatalf("the script crossed the clock's wrap %d times, want at least 100", wraps)
	}
}

// TestLineIsSixteenBytes pins the line's layout: an L1 array is most of
// what building a system allocates.
func TestLineIsSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 16 {
		t.Fatalf("cache.Line is %d bytes, want 16", n)
	}
}
