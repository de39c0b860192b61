package exp

import (
	"flag"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"fsoi/internal/stats"
	"fsoi/internal/system"
)

// tiny returns the cheapest possible options for registry smoke tests.
func tiny() Options {
	return Options{Scale: 0.02, Seed: 1, Trials: 300, Apps: []string{"jacobi"}}
}

func TestRegistryLookup(t *testing.T) {
	for _, e := range Registry {
		r, ok := Lookup(e.ID)
		if !ok || r == nil {
			t.Fatalf("Lookup(%s) failed", e.ID)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("unknown ids must not resolve")
	}
	if len(IDs()) != len(Registry) {
		t.Fatal("IDs() must cover the registry")
	}
}

func TestTable1Values(t *testing.T) {
	res := Table1(tiny())
	if res.Values["path_loss_db"] < 2 || res.Values["path_loss_db"] > 3.5 {
		t.Fatalf("path loss %.2f dB", res.Values["path_loss_db"])
	}
	if res.Values["bits_per_cyc"] != 12 {
		t.Fatal("12 line bits per core cycle expected")
	}
	if !strings.Contains(res.Text, "path loss") {
		t.Fatal("text missing")
	}
}

func TestFig3Monotonic(t *testing.T) {
	res := Fig3(tiny())
	// More receivers, fewer collisions at fixed p.
	if res.Values["p0.20_r1"] <= res.Values["p0.20_r2"] {
		t.Fatal("R=1 must collide more than R=2")
	}
	if res.Values["p0.01_r2"] >= res.Values["p0.33_r2"] {
		t.Fatal("collision probability must grow with p")
	}
}

func TestFig4FindsGentleBackoff(t *testing.T) {
	o := tiny()
	o.Trials = 3000
	res := Fig4(o)
	if res.Values["opt_b_g1"] > 1.5 {
		t.Fatalf("optimal B %.2f; small bases should win", res.Values["opt_b_g1"])
	}
	if res.Values["opt_delay_g1"] <= 0 {
		t.Fatal("optimum delay must be positive")
	}
}

func TestFig5Shape(t *testing.T) {
	o := tiny()
	o.Scale = 0.05
	res := Fig5(o)
	if res.Values["mode_frac"] <= 0.04 {
		t.Fatalf("reply latency should concentrate (mode frac %.2f)", res.Values["mode_frac"])
	}
	if res.Values["mean"] <= 0 {
		t.Fatal("mean must be positive")
	}
}

func TestFig6Ordering(t *testing.T) {
	res := Fig6(tiny())
	fsoi := res.Values["geomean_fsoi"]
	l0 := res.Values["geomean_L0"]
	lr2 := res.Values["geomean_Lr2"]
	if fsoi <= 0.9 {
		t.Fatalf("FSOI geomean %.3f; must not lose badly to mesh", fsoi)
	}
	if l0 < lr2*0.93 {
		t.Fatalf("L0 (%.3f) must not lose badly to Lr2 (%.3f)", l0, lr2)
	}
}

// TestTable4DividesEachAppByItsOwnMesh: radix is the shortest app of the
// suite at this scale and raytrace the longest (1.4x apart on the mesh),
// so dividing both by one app's mesh run, as Table4 once did with the
// last app's, moves the geomean by 18%.
func TestTable4DividesEachAppByItsOwnMesh(t *testing.T) {
	o := tiny()
	o.Apps = []string{"radix", "raytrace"}
	got := Table4(o).Values["fsoi_16_8.8"]
	var sps []float64
	for _, app := range o.suite() {
		mesh, fsoi := o.config(system.NetMesh, 16), o.config(system.NetFSOI, 16)
		mesh.Memory.TotalGBps, fsoi.Memory.TotalGBps = 8.8, 8.8
		sps = append(sps, system.New(fsoi).Run(app).Speedup(system.New(mesh).Run(app)))
	}
	if want := stats.GeoMean(sps); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Table 4 FSOI speedup at 16 cores, 8.8 GB/s = %.4f, per-app mesh baselines give %.4f", got, want)
	}
}

// TestUnfinishedJobIsReportedNotDivided: a run cut off at MaxCycles is
// named on the Result, so no caller mistakes the cap for a runtime (the
// L0 speedups of 0.016 that fig7 once printed). It also pins runSuite's
// layout: ms[c][a] is apps[a] on cfgs[c], and jobs are numbered
// app-major.
func TestUnfinishedJobIsReportedNotDivided(t *testing.T) {
	o := tiny()
	o.Apps = []string{"jacobi", "fft"}
	sink := &bufSink{}
	o.Trace = sink
	apps := o.suite()
	capped := o.config(system.NetL0, 64)
	capped.MaxCycles = 500
	cfgs := []system.Config{o.config(system.NetMesh, 16), capped}
	ms, unfinished := runSuite(o, apps, cfgs...)
	for c, cfg := range cfgs {
		for a, app := range apps {
			if m := ms[c][a]; m.App != app.Name || m.Net != string(cfg.Net) || m.Nodes != cfg.Nodes {
				t.Fatalf("ms[%d][%d] is %s on %s, %d nodes; want %s on %s, %d nodes",
					c, a, m.App, m.Net, m.Nodes, app.Name, cfg.Net, cfg.Nodes)
			}
			if cut := c == 1; ms[c][a].Finished == cut || cut && ms[c][a].Cycles > 500 {
				t.Fatalf("%s on %s finished %v after %d cycles, want the capped runs alone cut off at 500",
					app.Name, cfg.Net, ms[c][a].Finished, ms[c][a].Cycles)
			}
		}
	}
	if want := []string{"jacobi on L0, 64 nodes", "fft on L0, 64 nodes"}; !slices.Equal(unfinished, want) {
		t.Fatalf("unfinished = %q, want %q", unfinished, want)
	}
	if sink.err != nil {
		t.Fatal(sink.err)
	}
	var labels []string
	for _, line := range strings.Split(sink.buf.String(), "\n") {
		if label, ok := strings.CutPrefix(line, `{"run":"`); ok {
			labels = append(labels, strings.TrimSuffix(label, `"}`))
		}
	}
	if want := []string{"job000 jacobi mesh n16", "job001 jacobi L0 n64", "job002 fft mesh n16", "job003 fft L0 n64"}; !slices.Equal(labels, want) {
		t.Fatalf("trace labels = %q, want %q", labels, want)
	}
	if r := Fig6(tiny()); len(r.Unfinished) != 0 {
		t.Fatalf("fig6 at test scale reports unfinished jobs %q", r.Unfinished)
	}
}

func TestFig9ReducesCollisions(t *testing.T) {
	o := tiny()
	o.Scale = 0.05
	res := Fig9(o)
	if res.Values["collision_cut"] < -0.2 {
		t.Fatalf("ack elision should not increase collisions markedly: %.2f", res.Values["collision_cut"])
	}
	if res.Values["traffic_cut"] <= 0 {
		t.Fatal("ack elision must remove some meta packets")
	}
}

func TestLLSCNotHarmful(t *testing.T) {
	res := LLSC(tiny())
	if res.Values["speedup"] < 0.9 {
		t.Fatalf("confirmation-channel sync should not slow things: %.3f", res.Values["speedup"])
	}
}

func TestBenchOptionsAreCheap(t *testing.T) {
	o := BenchOptions()
	if o.Scale > 0.1 || len(o.Apps) == 0 {
		t.Fatal("bench options must stay small")
	}
}

func TestFaultsSweepDegradesMonotonically(t *testing.T) {
	res := Faults(tiny())
	// Tiny scale uses the {0, 2, 3.5} dB points; eroding margin must
	// not improve performance and must raise the retransmission cost.
	if res.Values["speedup_p0.0"] < res.Values["speedup_p3.5"] {
		t.Fatalf("speedup rose with lost margin: %.3f -> %.3f",
			res.Values["speedup_p0.0"], res.Values["speedup_p3.5"])
	}
	if res.Values["retrans_p3.5"] <= res.Values["retrans_p0.0"] {
		t.Fatalf("retransmissions must grow with corruption: %.3f -> %.3f",
			res.Values["retrans_p0.0"], res.Values["retrans_p3.5"])
	}
	if res.Values["bit_errors_p3.5"] == 0 {
		t.Fatal("3.5 dB must corrupt packets")
	}
	for _, key := range []string{"finished_p0.0", "finished_p2.0", "finished_p3.5"} {
		if res.Values[key] != 1 {
			t.Fatalf("%s: swept point did not finish (deadlock under faults)", key)
		}
	}
}

// TestRegistryWorkerEquivalence is the runner-level half of the
// parallel-vs-serial contract: every registered experiment renders the
// same Text, Values and Unfinished at Workers=1 and Workers=4, because
// results land at their (configuration, app) cell and every report is
// made in job order after the barrier.
func TestRegistryWorkerEquivalence(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) { sameAcrossWorkers(t, e.Runner) })
	}
}

// TestFig8WorkerEquivalence and TestFrontierWorkerEquivalence name the
// two experiments whose parallel paths were written first: fig8's energy
// grid and the frontier's topology x radix sweep.
func TestFig8WorkerEquivalence(t *testing.T)     { sameAcrossWorkers(t, Fig8) }
func TestFrontierWorkerEquivalence(t *testing.T) { sameAcrossWorkers(t, Frontier) }

// sameAcrossWorkers runs r at tiny() with Workers 1 and 4 and requires
// equal Text, Values and Unfinished.
func sameAcrossWorkers(t *testing.T, r Runner) {
	t.Helper()
	run := func(workers int) Result {
		o := tiny()
		o.Workers = workers
		return r(o)
	}
	serial, par := run(1), run(4)
	if serial.Text != par.Text {
		t.Fatalf("text diverges between workers=1 and workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.Text, par.Text)
	}
	sameFloat := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	if !maps.EqualFunc(serial.Values, par.Values, sameFloat) {
		t.Fatalf("values diverge:\n%v\n%v", serial.Values, par.Values)
	}
	if !slices.Equal(serial.Unfinished, par.Unfinished) {
		t.Fatalf("unfinished diverges: %q vs %q", serial.Unfinished, par.Unfinished)
	}
}

// TestFrontierShape checks the frontier sweep's physical narrative: the
// analytic grid covers every optical topology at 16/64/256 nodes,
// waveguide-crossbar loss grows with radix while FSOI's stays flat, and
// the simulated half produces the FSOI-vs-token-crossbar ratio.
func TestFrontierShape(t *testing.T) {
	res := Frontier(tiny())
	for _, topo := range []string{"corona", "fsoi", "matrix", "snake"} {
		for _, nodes := range []int{16, 64, 256} {
			if res.Values[key2("loss", topo, nodes)] <= 0 {
				t.Fatalf("missing analytic loss for %s@%d", topo, nodes)
			}
		}
		if res.Values[key2("cycles", topo, 16)] <= 0 {
			t.Fatalf("missing simulated cycles for %s@16", topo)
		}
	}
	for _, topo := range []string{"corona", "matrix", "snake"} {
		if res.Values[key2("loss", topo, 256)] <= res.Values[key2("loss", topo, 16)] {
			t.Fatalf("%s loss must grow with radix", topo)
		}
		// The headline: every waveguide crossbar loses to free space at 256.
		if res.Values[key2("loss", topo, 256)] <= res.Values[key2("loss", "fsoi", 256)] {
			t.Fatalf("%s@256 should pay more worst-case loss than fsoi", topo)
		}
	}
	ratio := res.Values["fsoi_vs_corona_16"]
	if ratio < 0.8 || ratio > 1.6 {
		t.Fatalf("fsoi-vs-corona ratio %.3f implausible", ratio)
	}
}

func key2(prefix, topo string, nodes int) string {
	return fmt.Sprintf("%s_%s_%d", prefix, topo, nodes)
}

// TestFrontierScaleHalf checks the scale half of the sweep: at scale
// 0.05 and up, the frontier simulates the two §7.1 contenders at 256
// nodes and reports their cycle counts. Skipped under -short (the -race
// job) for time.
func TestFrontierScaleHalf(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node frontier half runs only without -short")
	}
	o := tiny()
	o.Scale = 0.05
	res := Frontier(o)
	for _, topo := range []string{"fsoi", "corona"} {
		if res.Values[key2("cycles", topo, 256)] <= 0 {
			t.Fatalf("missing 256-node cycles for %s", topo)
		}
	}
	if !strings.Contains(res.Text, "Scale frontier (jacobi @ 0.002)") {
		t.Fatal("scale-half table missing from frontier text")
	}
}

// TestFaultSweepWorkerEquivalence: the sweep built from explicit flags
// at the default values (tiny scale sweeps 0/2/3.5 dB) is the
// registered experiment. TestRegistryWorkerEquivalence covers its
// worker counts.
func TestFaultSweepWorkerEquivalence(t *testing.T) {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	build := faultFlags(fs)
	if err := fs.Parse([]string{"-penalties", "0,2,3.5", "-confirm-drop", "0.01", "-vcsel-fail", "0.02"}); err != nil {
		t.Fatal(err)
	}
	flagBuilt, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if want, got := Faults(tiny()), flagBuilt(tiny()); got.Text != want.Text {
		t.Fatalf("the flag-built sweep diverges from the registered one:\n%s\n---\n%s", want.Text, got.Text)
	}
}
