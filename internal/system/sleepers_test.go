package system

import (
	"math"
	"testing"

	"fsoi/internal/workload"
)

// checkSleepers verifies, between two cycles, that no ticker asleep
// until woken sleeps past work it has: the FSOI sweep with a busy node
// is due by the next slot boundary, the outbox drain with a backlogged
// node by now, and the ideal networks' tick by
// the first cycle a queued node's serializer frees. It reports which of
// the three had work.
func (s *System) checkSleepers(t *testing.T, seen map[string]bool) {
	t.Helper()
	now := s.engine.Now()
	if s.fsoi != nil {
		if at, ok := s.fsoi.NextSweep(now); ok {
			seen["sweep"] = true
			if s.sweep.Due() > at {
				t.Fatalf("cycle %d: the FSOI sweep is due at %d with a busy node due at %d", now, s.sweep.Due(), at)
			}
		}
	}
	if s.backlogged.Any() {
		seen["drain"] = true
		if s.drain.Due() > now {
			t.Fatalf("cycle %d: the outbox drain is due at %d with a backlogged node", now, s.drain.Due())
		}
	}
	if s.ideal != nil {
		if at, ok := s.ideal.NextTick(now); ok {
			seen["ideal"] = true
			if s.netWake.Due() > at {
				t.Fatalf("cycle %d: %s's tick is due at %d with a packet to start at %d", now, s.cfg.Net, s.netWake.Due(), at)
			}
		}
	}
}

// TestNoSleeperSleepsPastItsWork steps whole runs one cycle at a time
// and checks the sleepers after every cycle. The runs are small enough
// to go idle often, and the FSOI runs refuse sends (one-packet lane
// queues) and lose confirmations, so every wake has cycles in which it
// alone arms its sleeper: deleting any one of them fails here. A stepped
// run must also end in the bytes of the same run under Run, which jumps
// the cycles nobody is due in.
func TestNoSleeperSleepsPastItsWork(t *testing.T) {
	for _, c := range []struct {
		net   NetworkKind
		nodes int
		app   string
		scale float64
		want  []string // the sleepers that must see work
	}{
		{NetFSOI, 4, "mp3d", 0.2, []string{"sweep", "drain"}},
		{NetFSOI, 16, "fft", 0.05, []string{"sweep", "drain"}},
		{NetL0, 4, "mp3d", 0.2, []string{"ideal"}},
		{NetLr2, 16, "jacobi", 0.05, []string{"ideal"}},
	} {
		cfg := Default(c.nodes, c.net)
		cfg.MaxCycles = 2_000_000
		if c.net == NetFSOI {
			cfg.FSOI.OutQueue = 1
			faultyConfig(&cfg)
		}
		app, ok := workload.ByName(c.app, c.scale)
		if !ok {
			t.Fatalf("unknown app %s", c.app)
		}
		s := New(cfg)
		if s.drain.Due() == math.MinInt64 {
			t.Fatal("the outbox drain is the zero Wake: the check below would pass vacuously")
		}
		s.start(app)
		seen := map[string]bool{}
		for !s.engine.Stopped() && s.engine.Now() < cfg.MaxCycles {
			s.engine.Step()
			s.checkSleepers(t, seen)
		}
		stepped := s.collect(app.Name)
		if !stepped.Finished {
			t.Fatalf("%s on %d nodes did not finish:\n%s", c.net, c.nodes, s.Diagnose())
		}
		for _, name := range c.want {
			if !seen[name] {
				t.Errorf("%s on %d nodes: the %s never had work, so its wakes went unchecked", c.net, c.nodes, name)
			}
		}
		if got, want := stepped.Canonical(), New(cfg).Run(app).Canonical(); got != want {
			t.Errorf("%s on %d nodes: stepping every cycle and Run's jumps disagree:\n%s\nvs\n%s", c.net, c.nodes, got, want)
		}
	}
}
