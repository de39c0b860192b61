package coherence

import (
	"testing"

	"fsoi/internal/cache"
	"fsoi/internal/sim"
)

// sendCycles reports when the rig saw each message of type t leave.
func (r *rig) sendCycles(t MsgType) []sim.Cycle {
	var at []sim.Cycle
	for i, m := range r.sent {
		if m.Type == t {
			at = append(at, r.sentAt[i])
		}
	}
	return at
}

// TestSendAfterKeepsIssueOrder: a short tag access must not overtake an
// earlier data access to the same node about the same line, whether or
// not the earlier one's lastSend entry has been retired in between.
func TestSendAfterKeepsIssueOrder(t *testing.T) {
	r := newRig(t, 2)
	d := r.dir
	data := Msg{Type: DataM, Addr: line, From: 0, To: 1, HasData: true}
	inv := Msg{Type: Inv, Addr: line, From: 0, To: 1}
	d.sendAfter(d.cfg.DataCycles, data)                                          // due in cycle 15
	d.sendAfter(d.cfg.TagCycles, inv)                                            // 4 cycles, held to 16
	d.sendAfter(d.cfg.TagCycles, Msg{Type: Inv, Addr: line + 1, From: 0, To: 1}) // another line: not held
	r.engine.Run(20)
	d.sendAfter(d.cfg.TagCycles, inv) // both entries are dead: 24, not 17
	r.engine.Run(20)
	if got := r.sendCycles(DataM); len(got) != 1 || got[0] != 15 {
		t.Fatalf("Data(M) left in cycles %v, want [15]", got)
	}
	if got := r.sendCycles(Inv); len(got) != 3 || got[0] != 4 || got[1] != 16 || got[2] != 24 {
		t.Fatalf("Inv left in cycles %v, want [4 16 24]", got)
	}
	if len(d.lastSend) != 0 {
		t.Fatalf("lastSend holds %d entries with the pipeline empty: %v", len(d.lastSend), d.lastSend)
	}
}

// TestLastSendEmptyAtQuiescence: lastSend holds the sends in the L2
// pipeline and nothing else, so a drained directory has an empty one, and
// every delayedSend record is back on the free list without its message.
func TestLastSendEmptyAtQuiescence(t *testing.T) {
	r := newRig(t, 4)
	rng := sim.NewRNG(99)
	peak := 0
	r.engine.Register(sim.TickFunc(func(sim.Cycle) {
		if n := len(r.dir.lastSend); n > peak {
			peak = n
		}
	}))
	for i := 0; i < 400; i++ {
		r.l1s[rng.Intn(4)].AccessRetry(cache.LineAddr(0x200+rng.Intn(64)), rng.Bool(0.4), func(sim.Cycle) {})
		if i%7 == 0 {
			r.run(300)
		}
	}
	r.run(60000)
	if r.engine.Pending() != 0 {
		t.Fatalf("rig not quiescent: %d events pending", r.engine.Pending())
	}
	if peak == 0 {
		t.Fatal("lastSend was never populated: the traffic missed the pipeline")
	}
	if n := len(r.dir.lastSend); n != 0 {
		t.Fatalf("lastSend holds %d entries after the run quiesced (peak %d)", n, peak)
	}
	if len(r.dir.sendFree) == 0 {
		t.Fatal("no delayedSend record came back to the free list")
	}
	for _, ds := range r.dir.sendFree {
		if ds.m != (Msg{}) || ds.d != r.dir || ds.fireFn == nil {
			t.Fatalf("a recycled delayedSend is not as born: %+v", ds)
		}
	}
}

// TestLastSendZeroLatencyStaysLive: with a zero access latency a send
// issued later in the cycle an earlier one fired in would land on that
// same cycle, so the fired entry must still hold it back a cycle.
func TestLastSendZeroLatencyStaysLive(t *testing.T) {
	r := newRig(t, 2)
	r.dir = NewDirectory(0, DirConfig{SliceLines: 1024, QueueEntries: 64, DataCycles: 15, TagCycles: 0}, r.engine, r, func(int) int { return 0 })
	d := r.dir
	inv := Msg{Type: Inv, Addr: line, From: 0, To: 1}
	r.engine.At(5, func(sim.Cycle) {
		d.sendAfter(0, inv) // fires later in cycle 5, before the event below
		r.engine.After(0, func(sim.Cycle) { d.sendAfter(0, inv) })
	})
	r.engine.Run(10)
	if got := r.sendCycles(Inv); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("Inv left in cycles %v, want [5 6]", got)
	}
}
