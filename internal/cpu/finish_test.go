package cpu

import (
	"fmt"
	"testing"

	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/sim"
)

// silentFabric swallows every request: the test itself hands each fill to
// the L1 at the cycle its script names.
type silentFabric struct{}

func (silentFabric) Send(coherence.Msg) bool        { return true }
func (silentFabric) ConfirmationElision() bool      { return false }
func (silentFabric) BooleanSubscription() bool      { return false }
func (silentFabric) SendBit(int, int, uint64, bool) {}

// finishScript is one thread: stores to distinct lines, all misses, issued
// on cycles 0, 1, ...; then compute cycles; then the stream ends, so
// finish is first called in cycle f = len(fills) + compute. Store i's fill
// reaches the L1 in cycle fills[i] > i, ahead of that cycle's step (the
// fills are scheduled before the run starts), and the store retires
// HitCycles later.
type finishScript struct {
	fills   []sim.Cycle
	compute int
}

// pollStream replays the script's ops and, when withPoll is set, is the
// reference: the per-cycle drain poll finish used to be. Next reports the
// end of the stream from inside step, immediately before step calls
// finish, so a poll scheduled there holds the schedule position finish's
// own used to hold.
type pollStream struct {
	ops      []Op
	core     *Core
	engine   *sim.Engine
	withPoll bool
	polled   sim.Cycle // the cycle the reference finishes in; -1 until it does
}

func (s *pollStream) Next() (Op, bool) {
	if len(s.ops) > 0 {
		op := s.ops[0]
		s.ops = s.ops[1:]
		return op, true
	}
	if s.withPoll {
		s.poll(s.engine.Now())
	}
	return Op{}, false
}

func (s *pollStream) poll(now sim.Cycle) {
	if s.core.storesOut > 0 {
		s.engine.After(1, s.poll)
		return
	}
	s.polled = now
}

// runFinishScript runs one script to quiescence and reports the cycle the
// core finished in (-1 if it never did), the reference's, and the engine
// events fired strictly after cycle f and strictly before the last fill.
func runFinishScript(t *testing.T, sc finishScript, hitCycles int, withPoll bool) (finished, polled sim.Cycle, idleEvents uint64) {
	t.Helper()
	engine := sim.NewEngine()
	cfg := coherence.PaperL1()
	cfg.HitCycles = hitCycles
	l1 := coherence.NewL1(0, cfg, engine, sim.NewRNG(1), silentFabric{}, func(cache.LineAddr) int { return 0 })
	stream := &pollStream{engine: engine, withPoll: withPoll, polled: -1}
	last := sim.Cycle(0)
	for i, at := range sc.fills {
		addr := cache.LineAddr(0x100 + i)
		stream.ops = append(stream.ops, Op{Kind: OpStore, Addr: addr})
		if at <= sim.Cycle(i) {
			t.Fatalf("script fills store %d in cycle %d, before it is issued", i, at)
		}
		if at > last {
			last = at
		}
	}
	if sc.compute > 0 {
		stream.ops = append(stream.ops, Op{Kind: OpCompute, Cycles: sc.compute})
	}
	finished = -1
	core := New(0, PaperCore(), engine, l1, stream, nil, func(_ int, at sim.Cycle) {
		if finished >= 0 {
			t.Errorf("onFinish fired twice, in cycles %d and %d", finished, at)
		}
		finished = at
	})
	stream.core = core
	core.Start()
	for i, at := range sc.fills {
		m := coherence.Msg{Type: coherence.DataM, Addr: cache.LineAddr(0x100 + i), HasData: true}
		engine.At(at, func(now sim.Cycle) { l1.Handle(m, now) })
	}
	f := sim.Cycle(len(sc.fills) + sc.compute)
	engine.Run(f + 1)
	before := engine.EventsFired()
	if last > f+1 {
		engine.Run(last - (f + 1))
	}
	idleEvents = engine.EventsFired() - before
	engine.Run(sim.Cycle(hitCycles) + 8)
	if engine.Pending() != 0 {
		t.Fatalf("%d events still pending after the script", engine.Pending())
	}
	if core.Done() != (finished >= 0) || (finished >= 0 && core.Stats().FinishCycle != finished) {
		t.Fatalf("Done %v, FinishCycle %d, onFinish in cycle %d", core.Done(), core.Stats().FinishCycle, finished)
	}
	return finished, stream.polled, idleEvents
}

// TestFinishCases pins the three ways the last store can retire relative
// to the finish call in cycle f, and that the core schedules nothing while
// it waits.
func TestFinishCases(t *testing.T) {
	cases := []struct {
		name string
		sc   finishScript
		want sim.Cycle
	}{
		// f = 3. Cycle 1's fill schedules the retirement before cycle 1's
		// step schedules the step that will call finish.
		{"drained earlier in cycle f", finishScript{fills: []sim.Cycle{1}, compute: 2}, 3},
		{"drained cycles before f", finishScript{fills: []sim.Cycle{1, 3}, compute: 10}, 12},
		// f = 6. The step was scheduled in cycle 1, the retirement in cycle
		// 4: finish runs first and finds the store outstanding.
		{"drains later in cycle f", finishScript{fills: []sim.Cycle{4}, compute: 5}, 7},
		{"drains in f+1", finishScript{fills: []sim.Cycle{5}, compute: 5}, 7},
		{"drains in D > f", finishScript{fills: []sim.Cycle{40}, compute: 5}, 42},
		{"several stores, last to drain decides", finishScript{fills: []sim.Cycle{30, 90, 60}, compute: 2}, 92},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, idle := runFinishScript(t, tc.sc, 2, false)
			if got != tc.want {
				t.Errorf("finished in cycle %d, want %d", got, tc.want)
			}
			// With one store nothing but the core could fire an event
			// between f and the fill; the poll fired one per cycle.
			if len(tc.sc.fills) == 1 && idle != 0 {
				t.Errorf("%d events fired between cycle f and the fill, want 0", idle)
			}
			ref, polled, _ := runFinishScript(t, tc.sc, 2, true)
			if ref != got || polled != tc.want {
				t.Errorf("with the reference poll alongside: finished in %d, the poll in %d, want %d for both", ref, polled, tc.want)
			}
		})
	}
}

// TestFinishMatchesDrainPoll sweeps compute lengths and fill cycles around
// f for one and two stores, at HitCycles 2 and 3: the wake-on-drain finish
// and the reference poll must agree on the cycle every time.
func TestFinishMatchesDrainPoll(t *testing.T) {
	check := func(sc finishScript, hit int) {
		got, polled, _ := runFinishScript(t, sc, hit, true)
		if got < 0 || got != polled {
			t.Errorf("%s HitCycles %d: finished in cycle %d, the poll in %d", fmt.Sprint(sc), hit, got, polled)
		}
	}
	for _, hit := range []int{2, 3} {
		for compute := 0; compute <= 6; compute++ {
			for a := sim.Cycle(1); a <= 12; a++ {
				check(finishScript{fills: []sim.Cycle{a}, compute: compute}, hit)
				for b := sim.Cycle(2); b <= 12; b++ {
					check(finishScript{fills: []sim.Cycle{a, b}, compute: compute}, hit)
				}
			}
		}
	}
}
