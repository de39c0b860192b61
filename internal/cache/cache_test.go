package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestLookupMissOnEmpty(t *testing.T) {
	c := New(16, 2)
	if c.Lookup(5) != nil {
		t.Fatal("empty cache should miss")
	}
}

func TestInstallThenLookup(t *testing.T) {
	c := New(16, 2)
	c.Install(5, Shared)
	l := c.Lookup(5)
	if l == nil || l.State != Shared || l.Addr != 5 {
		t.Fatalf("lookup after install: %+v", l)
	}
}

func TestInstallSameLineUpdatesInPlace(t *testing.T) {
	c := New(16, 2)
	c.Install(5, Shared)
	ev := c.Install(5, Modified)
	if ev.State != Invalid {
		t.Fatalf("reinstall must not evict: %+v", ev)
	}
	count := 0
	for _, a := range []LineAddr{5} {
		if c.Peek(a) != nil {
			count++
		}
	}
	if count != 1 || c.Peek(5).State != Modified {
		t.Fatal("line must exist exactly once with updated state")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(4, 2) // 2 sets x 2 ways
	// Set 0 holds even addresses.
	c.Install(0, Exclusive)
	c.Install(2, Exclusive)
	c.Lookup(0) // refresh 0; 2 becomes LRU
	ev := c.Install(4, Exclusive)
	if ev.Addr != 2 || ev.State != Exclusive {
		t.Fatalf("evicted %+v, want line 2", ev)
	}
	if c.Peek(0) == nil || c.Peek(4) == nil || c.Peek(2) != nil {
		t.Fatal("wrong set contents after eviction")
	}
}

func TestInvalidWayPreferred(t *testing.T) {
	c := New(4, 2)
	c.Install(0, Modified)
	ev := c.Install(2, Shared)
	if ev.State != Invalid {
		t.Fatalf("installing into a free way must not evict: %+v", ev)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(16, 2)
	c.Install(5, Modified)
	if st := c.Invalidate(5); st != Modified {
		t.Fatalf("Invalidate returned %v", st)
	}
	if c.Peek(5) != nil {
		t.Fatal("line still present after invalidate")
	}
	if st := c.Invalidate(5); st != Invalid {
		t.Fatal("double invalidate should report Invalid")
	}
}

func TestSetIsolation(t *testing.T) {
	c := New(8, 2) // 4 sets
	for a := LineAddr(0); a < 4; a++ {
		c.Install(a, Shared)
	}
	for a := LineAddr(0); a < 4; a++ {
		if c.Peek(a) == nil {
			t.Fatalf("line %d displaced from its own set", a)
		}
	}
}

func TestCapacityInvariant(t *testing.T) {
	err := quick.Check(func(addrs []uint16) bool {
		c := New(32, 4)
		for _, a := range addrs {
			c.Install(LineAddr(a), Shared)
		}
		// Count resident lines; must never exceed capacity, and no
		// duplicates.
		seen := map[LineAddr]bool{}
		count := 0
		for _, a := range addrs {
			l := c.Peek(LineAddr(a))
			if l != nil && !seen[l.Addr] {
				seen[l.Addr] = true
				count++
			}
		}
		return count <= 32
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {7, 2}, {12, 5}} {
		func() {
			defer func() { recover() }()
			New(bad[0], bad[1])
			t.Errorf("New(%d,%d) should panic", bad[0], bad[1])
		}()
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("%v.String() = %q", st, st.String())
		}
	}
}

// TestNewAllocatesOneLineArray pins the layout: every set is a range of
// one backing array, so a cache costs the struct and that array however
// many sets it has (it used to cost one allocation per set).
func TestNewAllocatesOneLineArray(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { New(512, 8) }); n != 2 {
		t.Fatalf("New(512, 8) makes %v allocations, want 2", n)
	}
}

// TestResetIsNew: a used cache, reset, is the cache New builds (lines
// and LRU clock alike), and evicts exactly as a new one does afterwards.
func TestResetIsNew(t *testing.T) {
	err := quick.Check(func(used, next []uint16) bool {
		c := New(32, 4)
		for _, a := range used {
			c.Install(LineAddr(a), Modified)
			c.Lookup(LineAddr(a / 2))
		}
		c.Reset()
		fresh := New(32, 4)
		if !reflect.DeepEqual(c, fresh) {
			return false
		}
		for _, a := range next {
			if c.Install(LineAddr(a), Shared) != fresh.Install(LineAddr(a), Shared) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
