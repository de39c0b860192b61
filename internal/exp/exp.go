// Package exp contains one runner per table and figure of the paper's
// evaluation (§6-§7), listed in Registry. Each runner takes Options,
// whose Scale lets the same code serve the full-size cmd/experiments
// binary and the scaled-down bench_test.go harness, and returns both a
// formatted table and the raw series for programmatic checks. Claims
// holds the paper's numbers, one row each; the runners print their
// "(paper: …)" text from it.
package exp

import (
	"flag"
	"fmt"
	"strings"

	"fsoi/internal/analytic"
	"fsoi/internal/core"
	"fsoi/internal/obs"
	"fsoi/internal/optics"
	"fsoi/internal/parallel"
	"fsoi/internal/sim"
	"fsoi/internal/stats"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// Options control experiment sizing.
type Options struct {
	// Scale multiplies workload length; 1.0 is the full experiment.
	Scale float64
	// Apps restricts the suite (nil = all sixteen).
	Apps []string
	// Seed feeds every deterministic random stream.
	Seed uint64
	// Trials sizes Monte Carlo estimates.
	Trials int
	// Workers bounds how many independent simulations run concurrently;
	// values <= 1 run everything serially on the calling goroutine.
	// Results are byte-identical at every worker count: each grid is a
	// fixed list of apps by a fixed list of configurations, every job
	// owns its own engine and RNG tree, and results land at their (app,
	// configuration) cell, never in completion order.
	Workers int
	// Trace, when non-nil, turns on the packet-lifecycle observability
	// layer for every simulated run and streams each run's recording to
	// the sink. Sinks are fed strictly in job order (app-major) after a
	// grid finishes, never from worker goroutines, so the emitted bytes
	// are identical at every Workers value.
	Trace TraceSink
}

// TraceSink receives one lifecycle recording per simulated run.
type TraceSink interface {
	// WriteRun consumes one run's recorder (never nil). The label
	// identifies the run within its experiment: job index, application,
	// network kind, and node count.
	WriteRun(label string, rec *obs.Recorder)
}

// BenchOptions returns the scaled-down settings used by bench_test.go.
func BenchOptions() Options {
	return Options{Scale: 0.05, Seed: 1, Trials: 4000, Apps: []string{"jacobi", "mp3d", "raytrace", "fft"}}
}

// suite returns the selected applications.
func (o Options) suite() []workload.App {
	all := workload.Suite(o.Scale)
	if len(o.Apps) == 0 {
		return all
	}
	var out []workload.App
	for _, name := range o.Apps {
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
			}
		}
	}
	return out
}

// Result is one experiment's output.
type Result struct {
	Title  string
	Text   string             // formatted table(s)
	Values map[string]float64 // key metrics for tests/EXPERIMENTS.md
	// Unfinished names every simulation of the grid that hit MaxCycles
	// ("app on net, n nodes"): its cycle count is the cap, not a runtime,
	// so any figure derived from it is wrong and the caller must say so.
	Unfinished []string
}

// Runner regenerates one table or figure.
type Runner func(o Options) Result

// Entry is one row of the Registry.
type Entry struct {
	ID     string
	Runner Runner
	// Flags is set on the experiments that take inputs of their own. It
	// registers them on the command's FlagSet and returns a function
	// that, called after Parse, yields the runner closed over the parsed
	// values, or the error a bad value earns. Runner is that same runner
	// with no flag set.
	Flags func(fs *flag.FlagSet) func() (Runner, error)
}

// Registry maps experiment ids to runners: the paper's tables and
// figures in paper order, then the extensions.
var Registry = []Entry{
	{ID: "table1", Runner: Table1, Flags: table1Flags},
	{ID: "fig3", Runner: Fig3},
	{ID: "fig4", Runner: Fig4},
	{ID: "fig5", Runner: Fig5},
	{ID: "fig6", Runner: Fig6},
	{ID: "fig7", Runner: Fig7},
	{ID: "table4", Runner: Table4},
	{ID: "fig8", Runner: Fig8},
	{ID: "fig9", Runner: Fig9},
	{ID: "fig10", Runner: Fig10},
	{ID: "fig11", Runner: Fig11},
	{ID: "hints", Runner: Hints},
	{ID: "llsc", Runner: LLSC},
	{ID: "corona", Runner: Corona},
	{ID: "frontier", Runner: Frontier},
	{ID: "faults", Runner: Faults, Flags: faultFlags},
	{ID: "layout", Runner: Layout},
	{ID: "thermal", Runner: Thermal},
	{ID: "resilience", Runner: Resilience, Flags: resilienceFlags},
}

// runAtDefaults runs an Entry.Flags runner with no flag set, so a
// parameterised experiment states its defaults once, as flag defaults.
func runAtDefaults(flags func(*flag.FlagSet) func() (Runner, error), o Options) Result {
	r, err := flags(flag.NewFlagSet("", flag.ContinueOnError))()
	if err != nil {
		panic(err) // only a bad compiled-in default can get here
	}
	return r(o)
}

// parseList splits a comma-separated flag value and parses each field;
// an empty value yields nil, which every sweep reads as "my default".
func parseList[T any](csv string, parse func(field string) (T, error)) ([]T, error) {
	if csv == "" {
		return nil, nil
	}
	var out []T
	for _, f := range strings.Split(csv, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Runner, true
		}
	}
	return nil, false
}

// Table1 is the registered "table1" experiment: the optical-link
// parameters from device first principles, at the paper's device
// constants. It is table1Flags' runner with no flag set.
func Table1(o Options) Result { return runAtDefaults(table1Flags, o) }

// table1Flags is the "table1" entry's Flags: the device constants a
// what-if study moves (experiments -run table1 -distance 0.03 -rate
// 50e9). Each range is the model's domain: no light below the lasing
// threshold or through a closed lens, no lens wider than its node's tile
// on the paper's 4x4 die; the upper ends of the route, the rate and the
// bias are far past any chip and keep every figure finite.
func table1Flags(fs *flag.FlagSet) func() (Runner, error) {
	link := optics.PaperLink()
	tile := optics.PaperChip(4).DieEdge / 4
	ranged := []struct {
		name, usage string
		v           *float64
		lo, hi      float64 // the range is (lo, hi]
	}{
		{"distance", "optical path length, m", &link.Path.Distance, 0, 1},
		{"rate", "target data rate, bit/s", &link.DataRate, 0, 1e12},
		{"bias", "VCSEL bias current, A", &link.VCSEL.BiasCurrent, link.VCSEL.ThresholdCurrent, 10e-3},
		{"txlens", "transmit micro-lens aperture, m", &link.Path.TxLensAperture, 0, tile},
		{"rxlens", "receive micro-lens aperture, m", &link.Path.RxLensAperture, 0, tile},
	}
	for _, f := range ranged {
		fs.Float64Var(f.v, f.name, *f.v, fmt.Sprintf("table1: %s, in (%g, %g]", f.usage, f.lo, f.hi))
	}
	const maxMirrors = 64 // at 0.98 each, 64 reflections keep a quarter of the light; Figure 1a's route takes 2
	fs.IntVar(&link.Path.MirrorCount, "mirrors", link.Path.MirrorCount, fmt.Sprintf("table1: micro-mirror reflections on the route, in [0, %d]", maxMirrors))
	return func() (Runner, error) {
		for _, f := range ranged {
			if !(*f.v > f.lo && *f.v <= f.hi) {
				return nil, fmt.Errorf("-%s is %g; want (%g, %g]", f.name, *f.v, f.lo, f.hi)
			}
		}
		if m := link.Path.MirrorCount; m < 0 || m > maxMirrors {
			return nil, fmt.Errorf("-mirrors is %d; want [0, %d]", m, maxMirrors)
		}
		cfg := link
		return func(Options) Result { return table1(cfg) }, nil
	}
}

// table1 renders the link budget of cfg, and the flight time and skew
// padding of the paper's 4x4 chip at cfg's clock and rate.
func table1(cfg optics.LinkConfig) Result {
	r := cfg.Budget()
	chip := optics.PaperChip(4)
	worst := chip.WorstCasePath()
	var b strings.Builder
	fmt.Fprintf(&b, "Worst-case route: %.1f mm (die %v mm, folded through the mirror layer)\n", worst*1e3, chip.DieEdge*1e3)
	fmt.Fprintf(&b, "Link budget: %.1f mm route at %.0f Gbps\n\n", cfg.Path.Distance*1e3, cfg.DataRate/1e9)
	b.WriteString(r.String())
	fmt.Fprintf(&b, "Timing\n  Flight time              %.3f core cycles at %.1f GHz over the worst-case route\n",
		optics.FlightCycles(worst, cfg.CoreHz), cfg.CoreHz/1e9)
	fmt.Fprintf(&b, "  Skew padding             %d line bits for the shortest route\n",
		optics.SkewPaddingBits(chip.PathLength(0, 1), worst, cfg.DataRate))
	return Result{
		Title: "Table 1: optical link parameters",
		Text:  b.String(),
		Values: map[string]float64{
			"path_loss_db": float64(r.PathLoss.TotalDB),
			"snr_db":       float64(r.OpticalSNRdB),
			"ber":          r.BER,
			"jitter_ps":    r.JitterRMS * 1e12,
			"bits_per_cyc": float64(r.BitsPerCycle),
			"tx_mw":        float64(r.TxActivePowerW) * 1e3,
			"rx_mw":        float64(r.RxPowerW) * 1e3,
			"standby_mw":   float64(r.TxStandbyPowerW) * 1e3,
		},
	}
}

// Fig3 regenerates the collision-probability curves: analytic lines for
// R=1..4 plus Monte Carlo cross-checks at R=2.
func Fig3(o Options) Result {
	rng := sim.NewRNG(o.Seed).NewStream("fig3")
	ps := []float64{0.33, 0.25, 0.20, 0.15, 0.10, 0.07, 0.05, 0.04, 0.03, 0.02, 0.01}
	t := stats.NewTable("p", "R=1", "R=2", "R=3", "R=4", "R=2 (MC)")
	vals := map[string]float64{}
	for _, p := range ps {
		row := []string{fmt.Sprintf("%.2f", p)}
		for r := 1; r <= 4; r++ {
			c := analytic.CollisionParams{N: 16, R: r, P: p}
			v := analytic.PacketCollisionProbability(c)
			row = append(row, fmt.Sprintf("%.4f", v))
			vals[fmt.Sprintf("p%.2f_r%d", p, r)] = v
		}
		mc, _ := analytic.MonteCarloCollision(analytic.CollisionParams{N: 16, R: 2, P: p}, rng, o.Trials, o.Workers)
		row = append(row, fmt.Sprintf("%.4f", mc))
		t.AddRow(row...)
	}
	return Result{
		Title:  "Figure 3: collision probability vs transmission probability",
		Text:   t.String(),
		Values: vals,
	}
}

// Fig4 regenerates the collision-resolution-delay surface over (W, B) at
// background rates 1% and 10%, plus the pathological 64-node burst.
func Fig4(o Options) Result {
	rng := sim.NewRNG(o.Seed).NewStream("fig4")
	ws := []float64{1.5, 2.0, 2.7, 3.0, 4.0, 5.0}
	bs := []float64{1.05, 1.1, 1.2, 1.5, 2.0}
	vals := map[string]float64{}
	var b strings.Builder
	for _, g := range []float64{0.01, 0.10} {
		fmt.Fprintf(&b, "G = %.0f%% (mean collision resolution delay, cycles)\n", g*100)
		t := stats.NewTable(append([]string{"W \\ B"}, fmtFloats(bs)...)...)
		surface := analytic.ResolutionDelaySurface(ws, bs, g, rng.NewStream(fmt.Sprint(g)), o.Trials, o.Workers)
		for i, w := range ws {
			row := []string{fmt.Sprintf("%.1f", w)}
			for j := range bs {
				row = append(row, fmt.Sprintf("%.2f", surface[i][j]))
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
		wOpt, bOpt, dOpt := analytic.OptimalWB(ws, bs, g, rng.NewStream("opt"+fmt.Sprint(g)), o.Trials, o.Workers)
		fmt.Fprintf(&b, "optimum: W=%.1f B=%.2f delay=%.2f cycles (paper: W=%s B=%s, %s cycles)\n\n",
			wOpt, bOpt, dOpt, paper("fig4.w"), paper("fig4.b"), paper("fig4.delay"))
		vals[fmt.Sprintf("opt_w_g%.0f", g*100)] = wOpt
		vals[fmt.Sprintf("opt_b_g%.0f", g*100)] = bOpt
		vals[fmt.Sprintf("opt_delay_g%.0f", g*100)] = dOpt
	}
	// Pathological case (§4.3.2): 64-node all-to-one burst.
	gentle := analytic.PaperBackoff(0)
	patho := gentle.Pathological(rng.NewStream("patho"), 64, 2, o.Trials/100+10, 1<<17, o.Workers)
	classic := analytic.BackoffModel{W: gentle.W, B: 2, SlotCycles: 2}
	pClassic := classic.Pathological(rng.NewStream("classic"), 64, 2, o.Trials/100+10, 1<<17, o.Workers)
	fmt.Fprintf(&b, "pathological 64->1 burst: B=%g first success after %.0f retries (%.0f cycles); B=%g after %.0f retries (%.0f cycles)\n",
		gentle.B, patho.MeanRetriesFirst, patho.MeanCyclesFirst, classic.B, pClassic.MeanRetriesFirst, pClassic.MeanCyclesFirst)
	vals["patho_retries_b11"] = patho.MeanRetriesFirst
	vals["patho_cycles_b11"] = patho.MeanCyclesFirst
	return Result{Title: "Figure 4: backoff tuning surface", Text: b.String(), Values: vals}
}

func fmtFloats(fs []float64) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%.2f", f)
	}
	return out
}

// config is the paper configuration of kind at nodes for this
// experiment: its seed, and observation on when a trace sink is attached.
func (o Options) config(kind system.NetworkKind, nodes int) system.Config {
	cfg := system.Default(nodes, kind)
	cfg.Seed = o.Seed
	cfg.Observe = o.Trace != nil
	return cfg
}

// runSuite runs every app on every configuration on up to o.Workers
// goroutines. It returns ms[c][a], the metrics of apps[a] on cfgs[c], and
// the runs that did not finish for Result.Unfinished. Job i is app
// i/len(cfgs) on configuration i%len(cfgs): that app-major order numbers
// the trace labels and orders the unfinished list, whatever the worker
// count. The jobs are handed out configuration-major, every app on
// cfgs[0] first, so a worker's consecutive runs mostly share a network.
// Each worker builds its next simulation from the storage of its last
// (system.Runner), which changes no byte of any job's metrics; the
// runners, and all they hold, end with the call.
func runSuite(o Options, apps []workload.App, cfgs ...system.Config) (ms [][]system.Metrics, unfinished []string) {
	ms = make([][]system.Metrics, len(cfgs))
	for c := range ms {
		ms[c] = make([]system.Metrics, len(apps))
	}
	jobs := len(apps) * len(cfgs)
	runners := make([]system.Runner, parallel.WorkerIDs(jobs, o.Workers))
	parallel.DoWorker(jobs, o.Workers, func(w, k int) {
		c, a := k/len(apps), k%len(apps)
		ms[c][a] = runners[w].Run(cfgs[c], apps[a])
	})
	// Report by job number after the barrier: the sink sees the same
	// sequence regardless of how many workers ran the grid or which
	// finished first.
	for i := range jobs {
		a, c := i/len(cfgs), i%len(cfgs)
		m, app, cfg := ms[c][a], apps[a].Name, cfgs[c]
		if !m.Finished {
			unfinished = append(unfinished, fmt.Sprintf("%s on %s, %d nodes", app, cfg.Net, cfg.Nodes))
		}
		if o.Trace != nil {
			o.Trace.WriteRun(fmt.Sprintf("job%03d %s %s n%d", i, app, cfg.Net, cfg.Nodes), m.Obs)
		}
	}
	return ms, unfinished
}

// Fig5 regenerates the read-miss reply-latency distribution on the
// 16-node FSOI system.
func Fig5(o Options) Result {
	hist := stats.NewHistogram(5, 60)
	ms, wedged := runSuite(o, o.suite(), o.config(system.NetFSOI, 16))
	for _, m := range ms[0] {
		hist.Merge(m.ReplyHist)
	}
	var b strings.Builder
	t := stats.NewTable("latency (cycles)", "requests (%)")
	for i := 0; i < hist.NumBuckets(); i += 2 {
		frac := hist.Fraction(i) + hist.Fraction(i+1)
		t.AddRow(fmt.Sprintf("%d-%d", i*5, (i+2)*5-1), fmt.Sprintf("%.1f", frac*100))
	}
	t.AddRow(">300", fmt.Sprintf("%.1f", float64(hist.Overflow())/float64(hist.Total())*100))
	b.WriteString(t.String())
	bucket, frac := hist.ModeFraction()
	fmt.Fprintf(&b, "\nmodal bin %d-%d cycles holds %.0f%% of requests (paper: %s concentration)\n",
		bucket*5, bucket*5+4, frac*100, paper("fig5.mode"))
	return Result{
		Title: "Figure 5: distribution of read-miss reply latency (FSOI, 16 nodes)",
		Text:  b.String(),
		Values: map[string]float64{
			"mode_frac":   frac,
			"mode_cycles": float64(bucket * 5),
			"mean":        hist.Mean(),
		},
		Unfinished: wedged,
	}
}

// vsMesh lists the networks of Figures 6-7 and Table 4 in column order:
// the mesh baseline, then every network measured against it.
var vsMesh = []system.NetworkKind{system.NetMesh, system.NetFSOI, system.NetL0, system.NetLr1, system.NetLr2}

// speedups returns each app's speedup on run over its own run on base.
func speedups(run, base []system.Metrics) []float64 {
	out := make([]float64, len(run))
	for a, m := range run {
		out[a] = m.Speedup(base[a])
	}
	return out
}

// speedupStudy runs the Figure 6/7 comparison at the given node count.
func speedupStudy(o Options, nodes int) Result {
	apps := o.suite()
	cfgs := make([]system.Config, len(vsMesh))
	for c, kind := range vsMesh {
		cfgs[c] = o.config(kind, nodes)
	}
	ms, wedged := runSuite(o, apps, cfgs...)
	mesh, fsoi := ms[0], ms[1]
	speed := make([][]float64, len(vsMesh)-1) // speed[k][a]: vsMesh[k+1] over the mesh
	for k, col := range ms[1:] {
		speed[k] = speedups(col, mesh)
	}
	t := stats.NewTable("app", "mesh lat", "fsoi lat", "queue", "sched", "net", "resolve", "fsoi", "L0", "Lr1", "Lr2")
	var lat []float64 // FSOI's mean packet latency, per app
	for a, app := range apps {
		lat = append(lat, fsoi[a].Latency.MeanTotal())
		q, sc, nw, res := fsoi[a].Latency.Breakdown()
		cells := []string{app.Name,
			fmt.Sprintf("%.1f", mesh[a].Latency.MeanTotal()),
			fmt.Sprintf("%.1f", lat[a]),
			fmt.Sprintf("%.1f", q), fmt.Sprintf("%.1f", sc), fmt.Sprintf("%.1f", nw), fmt.Sprintf("%.1f", res),
		}
		for _, sp := range speed {
			cells = append(cells, fmt.Sprintf("%.3f", sp[a]))
		}
		t.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\ngeometric means: ")
	chart := stats.NewBarChart("\nspeedup over mesh (geomean)", 40)
	vals := map[string]float64{"latency_fsoi": mean(lat)}
	for k, kind := range vsMesh[1:] {
		g := stats.GeoMean(speed[k])
		vals["geomean_"+string(kind)] = g
		fmt.Fprintf(&b, "%s=%.3f  ", kind, g)
		chart.Add(string(kind), g)
	}
	b.WriteString("\n")
	b.WriteString(chart.String())
	title := "Figure 6: 16-node latency and speedups"
	if nodes == 64 {
		title = "Figure 7: 64-node latency and speedups"
	}
	return Result{Title: title, Text: b.String(), Values: vals, Unfinished: wedged}
}

// Fig6 is the 16-node performance study.
func Fig6(o Options) Result { return speedupStudy(o, 16) }

// Fig7 is the 64-node performance study (phase-array transmitters).
func Fig7(o Options) Result { return speedupStudy(o, 64) }

// Table4 compares speedups at 8.8 vs 52.8 GB/s memory bandwidth.
func Table4(o Options) Result {
	t := stats.NewTable("system", "bandwidth", "FSOI", "L0", "Lr1", "Lr2")
	vals := map[string]float64{}
	apps := o.suite()
	sizes := []int{16, 64}
	if o.Scale < 0.2 {
		// Benches skip the 64-node half for time.
		sizes = sizes[:1]
	}
	bws := []float64{8.8, 52.8}
	// One row of len(vsMesh) configurations per (size, bandwidth), the
	// mesh first.
	var cfgs []system.Config
	for _, nodes := range sizes {
		for _, bw := range bws {
			for _, kind := range vsMesh {
				cfg := o.config(kind, nodes)
				cfg.Memory.TotalGBps = bw
				cfgs = append(cfgs, cfg)
			}
		}
	}
	ms, wedged := runSuite(o, apps, cfgs...)
	for _, nodes := range sizes {
		for _, bw := range bws {
			mesh, cols := ms[0], ms[1:len(vsMesh)]
			ms = ms[len(vsMesh):]
			cells := []string{fmt.Sprintf("%d-core", nodes), fmt.Sprintf("%.1fGB/s", bw)}
			for k, kind := range vsMesh[1:] {
				// Each app against its own mesh run.
				g := stats.GeoMean(speedups(cols[k], mesh))
				cells = append(cells, fmt.Sprintf("%.3f", g))
				if kind == system.NetFSOI {
					vals[fmt.Sprintf("fsoi_%d_%.1f", nodes, bw)] = g
				}
			}
			t.AddRow(cells...)
		}
	}
	return Result{Title: "Table 4: memory-bandwidth sensitivity", Text: t.String(), Values: vals, Unfinished: wedged}
}

// Fig8 compares energy relative to the mesh baseline.
func Fig8(o Options) Result {
	t := stats.NewTable("app", "network", "core+cache", "leakage", "total rel", "fsoi W", "mesh W")
	var relSum, netRatioSum float64
	vals := map[string]float64{}
	apps := o.suite()
	ms, wedged := runSuite(o, apps, o.config(system.NetMesh, 16), o.config(system.NetFSOI, 16))
	for a, app := range apps {
		mMesh, mFsoi := ms[0][a], ms[1][a]
		baseTotal := mMesh.Energy.Total()
		rel := float64(mFsoi.Energy.Total() / baseTotal)
		t.AddRow(app.Name,
			fmt.Sprintf("%.3f", mFsoi.Energy.Network/baseTotal),
			fmt.Sprintf("%.3f", mFsoi.Energy.CoreCache/baseTotal),
			fmt.Sprintf("%.3f", mFsoi.Energy.Leakage/baseTotal),
			fmt.Sprintf("%.3f", rel),
			fmt.Sprintf("%.1f", mFsoi.AvgPowerW),
			fmt.Sprintf("%.1f", mMesh.AvgPowerW))
		relSum += rel
		if mFsoi.Energy.Network > 0 {
			netRatioSum += float64(mMesh.Energy.Network / mFsoi.Energy.Network)
		}
	}
	var b strings.Builder
	b.WriteString(t.String())
	avgSaving := 1 - relSum/float64(len(apps))
	netRatio := netRatioSum / float64(len(apps))
	fmt.Fprintf(&b, "\naverage energy saving %.1f%% (paper: %s); network energy ratio mesh/FSOI %.1fx (paper: %s)\n",
		avgSaving*100, paper("fig8.saving"), netRatio, paper("fig8.net_ratio"))
	vals["avg_saving"] = avgSaving
	vals["net_ratio"] = netRatio
	return Result{Title: "Figure 8: energy relative to mesh baseline", Text: b.String(), Values: vals, Unfinished: wedged}
}

// Fig9 shows the meta-lane collision rate vs transmission probability
// with and without the confirmation-substitution (ack elision).
func Fig9(o Options) Result {
	t := stats.NewTable("app", "p base", "coll base", "p opt", "coll opt", "theory(p base)")
	var collBase, collOpt, metaBase, metaOpt float64
	apps := o.suite()
	noElision := o.config(system.NetFSOI, 16)
	noElision.FSOI.Opt.AckElision = false
	ms, wedged := runSuite(o, apps, noElision, o.config(system.NetFSOI, 16))
	for a, app := range apps {
		off, on := ms[0][a], ms[1][a]
		pb := off.FSOI.TransmissionProbability(core.LaneMeta)
		po := on.FSOI.TransmissionProbability(core.LaneMeta)
		cb := off.FSOI.CollisionRate(core.LaneMeta)
		co := on.FSOI.CollisionRate(core.LaneMeta)
		theory := analytic.PacketCollisionProbability(analytic.CollisionParams{N: 16, R: 2, P: pb})
		t.AddRow(app.Name, fmt.Sprintf("%.4f", pb), fmt.Sprintf("%.4f", cb),
			fmt.Sprintf("%.4f", po), fmt.Sprintf("%.4f", co), fmt.Sprintf("%.4f", theory))
		collBase += cb * float64(off.FSOI.Attempts[core.LaneMeta])
		collOpt += co * float64(on.FSOI.Attempts[core.LaneMeta])
		metaBase += float64(off.MetaPackets)
		metaOpt += float64(on.MetaPackets)
	}
	var b strings.Builder
	b.WriteString(t.String())
	trafficCut := 1 - metaOpt/metaBase
	collCut := 1 - collOpt/collBase
	fmt.Fprintf(&b, "\nack elision cuts meta traffic by %.1f%% and meta collisions by %.1f%% (paper: %s traffic, %s collisions)\n",
		trafficCut*100, collCut*100, paper("fig9.traffic_cut"), paper("fig9.collision_cut"))
	return Result{Title: "Figure 9: meta collision rate vs transmission probability",
		Text: b.String(), Values: map[string]float64{"traffic_cut": trafficCut, "collision_cut": collCut}, Unfinished: wedged}
}

// Fig10 breaks down data-lane collisions by kind with and without the
// §5.2 optimizations.
func Fig10(o Options) Result {
	t := stats.NewTable("app", "config", "retrans", "writeback", "memory", "reply", "coll rate")
	apps := o.suite()
	base := o.config(system.NetFSOI, 16)
	base.FSOI.Opt.ReceiverScheduling = false
	base.FSOI.Opt.WritebackSplit = false
	base.FSOI.Opt.RetransmitHints = false
	ms, wedged := runSuite(o, apps, base, o.config(system.NetFSOI, 16))
	names := []string{"base", "opt"}
	rates := make([][]float64, len(names)) // rates[c][a]
	for a, app := range apps {
		for c, name := range names {
			st := ms[c][a].FSOI
			kinds := st.DataByKind[0] + st.DataByKind[1] + st.DataByKind[2] + st.DataByKind[3]
			if kinds == 0 {
				kinds = 1
			}
			total := float64(kinds)
			rate := st.CollisionRate(core.LaneData)
			t.AddRow(app.Name, name,
				fmt.Sprintf("%.2f", float64(st.DataByKind[core.CollisionRetransmission])/total),
				fmt.Sprintf("%.2f", float64(st.DataByKind[core.CollisionWriteback])/total),
				fmt.Sprintf("%.2f", float64(st.DataByKind[core.CollisionMemory])/total),
				fmt.Sprintf("%.2f", float64(st.DataByKind[core.CollisionReply])/total),
				fmt.Sprintf("%.4f", rate))
			rates[c] = append(rates[c], rate)
		}
	}
	rateOff, rateOn := mean(rates[0]), mean(rates[1])
	var b strings.Builder
	b.WriteString(t.String())
	avoided := 1 - rateOn/rateOff
	fmt.Fprintf(&b, "\ndata collision rate %.2f%% -> %.2f%%: %.0f%% of collisions avoided (paper: %s -> %s, %s avoided)\n",
		rateOff*100, rateOn*100, avoided*100, paper("fig10.rate_off"), paper("fig10.rate_on"), paper("fig10.avoided"))
	return Result{Title: "Figure 10: data-lane collision breakdown",
		Text: b.String(), Values: map[string]float64{"rate_off": rateOff, "rate_on": rateOn, "avoided": avoided}, Unfinished: wedged}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig11 sweeps relative bandwidth from 100% down to 50% for both FSOI and
// the mesh, normalizing each to its own full-bandwidth configuration.
func Fig11(o Options) Result {
	// Each point scales FSOI's (meta, data) VCSEL counts, and throttles
	// the mesh to the same fraction of its bandwidth.
	points := []struct {
		frac       float64
		meta, data int
	}{
		{1.00, 3, 6}, {0.89, 3, 5}, {0.78, 2, 5}, {0.67, 2, 4}, {0.56, 2, 3}, {0.50, 2, 3},
	}
	var cfgs []system.Config
	for _, p := range points {
		cfg := o.config(system.NetFSOI, 16)
		cfg.FSOI.MetaVCSELs, cfg.FSOI.DataVCSELs = p.meta, p.data
		cfgs = append(cfgs, cfg)
	}
	for _, p := range points {
		cfg := o.config(system.NetMesh, 16)
		cfg.MeshBandwidthFrac = p.frac
		cfgs = append(cfgs, cfg)
	}
	ms, wedged := runSuite(o, o.suite(), cfgs...)
	fsoi, mesh := ms[:len(points)], ms[len(points):]
	// geo reduces one configuration's runs to their geomean cycle count.
	geo := func(col []system.Metrics) float64 {
		var cycles []float64
		for _, m := range col {
			cycles = append(cycles, float64(m.Cycles))
		}
		return stats.GeoMean(cycles)
	}
	t := stats.NewTable("rel bandwidth", "FSOI rel perf", "mesh rel perf")
	vals := map[string]float64{}
	fsoiBase, meshBase := geo(fsoi[0]), geo(mesh[0])
	var fRel, mRel float64 // at the last, narrowest point after the loop
	for i, p := range points {
		fRel = fsoiBase / geo(fsoi[i])
		mRel = meshBase / geo(mesh[i])
		t.AddRow(fmt.Sprintf("%.0f%%", p.frac*100), fmt.Sprintf("%.3f", fRel), fmt.Sprintf("%.3f", mRel))
		vals[fmt.Sprintf("fsoi_%.2f", p.frac)] = fRel
		vals[fmt.Sprintf("mesh_%.2f", p.frac)] = mRel
	}
	less := "neither network"
	switch {
	case fRel > mRel:
		less = "FSOI"
	case mRel > fRel:
		less = "the mesh"
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nat %.0f%% bandwidth FSOI keeps %.3f and the mesh %.3f of their full-bandwidth performance: %s is less sensitive (paper Figure 11: FSOI is)\n",
		points[len(points)-1].frac*100, fRel, mRel, less)
	return Result{Title: "Figure 11: performance vs relative bandwidth", Text: b.String(), Values: vals, Unfinished: wedged}
}

// Hints measures the §5.2 retransmission-hint effectiveness. The paper's
// resolution delays are over the data packets that collided: their delays
// are pooled over the apps. Beside them, the mean over every delivered
// packet of both lanes (per app, then averaged), most of which never
// collided.
func Hints(o Options) Result {
	var correct, issued, wrong int64
	var resWith, resWithout []float64
	var nWith, delayWith, nWithout, delayWithout int64 // the collided data packets, pooled
	apps := o.suite()
	noHints := o.config(system.NetFSOI, 64)
	noHints.FSOI.Opt.RetransmitHints = false
	ms, wedged := runSuite(o, apps, o.config(system.NetFSOI, 64), noHints)
	for a := range apps {
		on, off := ms[0][a], ms[1][a]
		correct += on.FSOI.HintsCorrect
		issued += on.FSOI.HintsIssued
		wrong += on.FSOI.HintsWrong
		resWith = append(resWith, on.Latency.Resolution.Mean())
		resWithout = append(resWithout, off.Latency.Resolution.Mean())
		nWith += on.Latency.CollidedData
		delayWith += on.Latency.CollidedDataDelay
		nWithout += off.Latency.CollidedData
		delayWithout += off.Latency.CollidedDataDelay
	}
	acc := float64(correct) / float64(max(issued, 1))
	wrongFrac := float64(wrong) / float64(max(issued, 1))
	dataWith := float64(delayWith) / float64(max(nWith, 1))
	dataWithout := float64(delayWithout) / float64(max(nWithout, 1))
	text := fmt.Sprintf(
		"hint accuracy: %.1f%% (paper: %s); wrong-winner rate: %.1f%% (paper: %s)\n"+
			"mean data resolution delay with hints %.1f vs without %.1f cycles (paper: %s vs %s), over the %d vs %d data packets that collided\n"+
			"mean resolution delay over every delivered packet, both lanes, mean of the apps' means: with hints %.1f vs without %.1f cycles\n",
		acc*100, paper("hints.accuracy"), wrongFrac*100, paper("hints.wrong"),
		dataWith, dataWithout, paper("hints.delay_with"), paper("hints.delay_without"), nWith, nWithout, mean(resWith), mean(resWithout))
	return Result{Title: "§7.3: retransmission hint effectiveness", Text: text,
		Values: map[string]float64{
			"accuracy": acc, "wrong": wrongFrac, "res_with": mean(resWith), "res_without": mean(resWithout),
			"res_data_with": dataWith, "res_data_without": dataWithout,
			"res_data_n_with": float64(nWith), "res_data_n_without": float64(nWithout),
		},
		Unfinished: wedged}
}

// LLSC measures the boolean-subscription synchronization optimization on
// the synchronization-heavy applications.
func LLSC(o Options) Result {
	syncApps := []string{"barnes", "radiosity", "raytrace", "water-sp", "ilink", "tsp", "fmm"}
	opts := o
	opts.Apps = intersect(syncApps, o.Apps)
	var speeds []float64
	var metaCut, dataCut []float64
	t := stats.NewTable("app", "speedup", "meta cut %", "data cut %")
	// §5.1 quantifies this on the 64-way system, where spin traffic and
	// invalidation storms are N times heavier.
	apps := opts.suite()
	coherent := o.config(system.NetFSOI, 64)
	coherent.FSOI.Opt.BooleanSubscription = false
	ms, wedged := runSuite(o, apps, o.config(system.NetFSOI, 64), coherent)
	for a, app := range apps {
		with, without := ms[0][a], ms[1][a]
		sp := float64(without.Cycles) / float64(with.Cycles)
		mc := 1 - float64(with.MetaPackets)/float64(without.MetaPackets)
		dc := 1 - float64(with.DataPackets)/float64(without.DataPackets)
		speeds = append(speeds, sp)
		metaCut = append(metaCut, mc)
		dataCut = append(dataCut, dc)
		t.AddRow(app.Name, fmt.Sprintf("%.3f", sp), fmt.Sprintf("%.1f", mc*100), fmt.Sprintf("%.1f", dc*100))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\ngeomean speedup %.3f (paper: %s); meta packets cut %.1f%% (paper: %s), data cut %.1f%% (paper: %s)\n",
		stats.GeoMean(speeds), paper("llsc.speedup"), mean(metaCut)*100, paper("llsc.meta_cut"), mean(dataCut)*100, paper("llsc.data_cut"))
	return Result{Title: "§7.3: ll/sc over the confirmation channel", Text: b.String(),
		Values: map[string]float64{"speedup": stats.GeoMean(speeds), "meta_cut": mean(metaCut), "data_cut": mean(dataCut)}, Unfinished: wedged}
}

func intersect(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	set := map[string]bool{}
	for _, x := range b {
		set[x] = true
	}
	var out []string
	for _, x := range a {
		if set[x] {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return a[:1]
	}
	return out
}

// Corona compares FSOI against the corona-style crossbar at 64 nodes.
func Corona(o Options) Result {
	var ratios []float64
	t := stats.NewTable("app", "fsoi cycles", "corona cycles", "fsoi/corona speedup")
	apps := o.suite()
	ms, wedged := runSuite(o, apps, o.config(system.NetFSOI, 64), o.config(system.NetCorona, 64))
	for a, app := range apps {
		f, c := ms[0][a], ms[1][a]
		r := float64(c.Cycles) / float64(f.Cycles)
		ratios = append(ratios, r)
		t.AddRow(app.Name, fmt.Sprint(f.Cycles), fmt.Sprint(c.Cycles), fmt.Sprintf("%.3f", r))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\ngeomean: FSOI is %.3fx the corona-style design (paper: %s)\n", stats.GeoMean(ratios), paper("corona.ratio"))
	return Result{Title: "§7.1: FSOI vs corona-style crossbar (64 nodes)", Text: b.String(),
		Values: map[string]float64{"ratio": stats.GeoMean(ratios)}, Unfinished: wedged}
}

// IDs lists experiment ids in Registry order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}
