package system

import (
	"runtime"
	"testing"
)

// A warmed Runner's run may allocate at most this fraction of what
// New(cfg).Run allocates for the same run. The bound is relative so that
// it holds across Go versions, whose allocation sizes differ. On linux/amd64
// with Go 1.24 the warmed runs measured 1.1-1.7 % (3.3-7.0 KB of
// 310-414 KB): the run's Metrics, the System, the closures bound once per
// build and those the coherence layer schedules per retry. A component
// whose storage is not handed over costs kilobytes more: dropping the
// cores' handover adds 5.6 KB, 2.8-3.5 % in all.
const warmedRunFrac = 1.0 / 40

// The crossbars (corona, matrix, snake) take no network donor, and the
// closures they schedule per grant and per delivered packet, which no
// handover removes, are most of their run's allocation: warmed runs
// measured 64-65 % of a new system's. Their bound holds only the total;
// dropping the L1s' handover reaches 70-71 %, so a single lost component
// shows on the other five networks, not here.
const warmedCrossbarRunFrac = 0.75

// TestRunnerSteadyStateAllocs repeats one (app, configuration) on one
// Runner until the storage it hands over has seen the run's working set,
// then holds each further run to its fraction of a new system's run.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	app := tinyApp(t, "jacobi")
	const runs = 4
	perRun := func(run func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, name := range Networks() {
		cfg := Default(16, NetworkKind(name))
		fresh := perRun(func() { New(cfg).Run(app) })
		var r Runner
		for range 3 {
			r.Run(cfg, app)
		}
		warm := perRun(func() { r.Run(cfg, app) })
		frac := warmedRunFrac
		if name == "corona" || name == "matrix" || name == "snake" {
			frac = warmedCrossbarRunFrac
		}
		t.Logf("%s: %.0f bytes per warmed run, %.0f per new system's (%.1f %%)", name, warm, fresh, 100*warm/fresh)
		if warm > frac*fresh {
			t.Errorf("%s: a warmed Runner allocates %.0f bytes per run, %.1f %% of a new system's %.0f; bound %.1f %%",
				name, warm, 100*warm/fresh, fresh, 100*frac)
		}
	}
}
