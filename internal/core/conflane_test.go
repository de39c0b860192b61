package core

import (
	"testing"
	"testing/quick"

	"fsoi/internal/sim"
)

func TestConfLaneNoDelayWhenIdle(t *testing.T) {
	c := newConfLane(4, 12)
	if d := c.sendDelay(0, 100, 4); d != 0 {
		t.Fatalf("idle lane delayed %d cycles", d)
	}
}

func TestConfLaneBacklogDelays(t *testing.T) {
	c := newConfLane(2, 12)
	// Saturate node 0's lane within one cycle: 12 minis available, ask
	// for 30.
	c.sendDelay(0, 10, 30)
	if d := c.sendDelay(0, 10, 4); d < 1 {
		t.Fatalf("saturated lane must push to a later cycle, got %d", d)
	}
	// Node 1 is unaffected.
	if d := c.sendDelay(1, 10, 4); d != 0 {
		t.Fatal("lanes must be independent")
	}
}

func TestConfLaneReservationStable(t *testing.T) {
	c := newConfLane(4, 12)
	off1 := c.reserve(0, 2)
	off2 := c.reserve(0, 2)
	if off1 != off2 {
		t.Fatalf("re-reservation moved the offset: %d vs %d", off1, off2)
	}
	if off1 < 1 || off1 >= 12 {
		t.Fatalf("offset %d out of range (0 is receipt-priority)", off1)
	}
}

func TestConfLaneDistinctOffsets(t *testing.T) {
	c := newConfLane(4, 12)
	seen := map[int]bool{}
	for sub := 1; sub <= 11; sub++ {
		off := c.reserve(0, sub)
		if off < 0 {
			t.Fatalf("reservation %d denied with offsets free", sub)
		}
		if seen[off] {
			t.Fatalf("offset %d double-booked", off)
		}
		seen[off] = true
	}
	// The 12th subscriber finds every non-zero offset taken.
	if off := c.reserve(0, 12); off != -1 {
		t.Fatalf("oversubscription must be denied, got offset %d", off)
	}
	if len(c.reserved[0]) != 11 {
		t.Fatalf("a denial must leave the table as it was: %v", c.reserved[0])
	}
}

func TestConfLaneDelayNonNegativeProperty(t *testing.T) {
	c := newConfLane(4, 12)
	err := quick.Check(func(src uint8, at uint16, minis uint8) bool {
		d := c.sendDelay(int(src%4), 1000+sim.Cycle(at), int(minis%8)+1)
		return d >= 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestConfLaneReservationTableIsLazy: an owner's reservation table is
// made by its first reservation. The lookup for an existing reservation
// reads the table before then, and the denied path never writes it.
func TestConfLaneReservationTableIsLazy(t *testing.T) {
	c := newConfLane(4, 12)
	for owner, m := range c.reserved {
		if m != nil {
			t.Fatalf("owner %d starts with a reservation table", owner)
		}
	}
	off := c.reserve(1, 3)
	if off < 1 || c.reserved[1][off] != 3 || len(c.reserved[1]) != 1 {
		t.Fatalf("first reservation got offset %d, table %v", off, c.reserved[1])
	}
	if c.reserved[0] != nil || c.reserved[2] != nil || c.reserved[3] != nil {
		t.Fatal("one owner's reservation made another's table")
	}
	// A one-offset lane has nothing to reserve: denied, and no table made.
	d := newConfLane(2, 1)
	if off := d.reserve(0, 1); off != -1 || d.reserved[0] != nil {
		t.Fatalf("reservation on a lane without spare offsets: offset %d, table %v", off, d.reserved[0])
	}
}
