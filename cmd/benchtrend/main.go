// Command benchtrend snapshots the repository's performance trajectory.
// Each invocation measures the engine hot path with testing.Benchmark
// (the fastest of three runs per row), times a representative slice of
// the experiment registry at bench scale, and times one fsoilint pass
// over the module (load and analysis separately), then writes
// BENCH_<n>.json next to the previous snapshots so the ns/op, allocs/op,
// and wall-clock history is machine-readable across PRs.
//
// Usage:
//
//	benchtrend              # writes BENCH_<next>.json in the cwd
//	benchtrend -n 0 -dir .  # explicit index and directory
//	benchtrend -j 4         # experiment timings with 4 workers
//	benchtrend -check BENCH_9.json   # regression gate, writes nothing
//	benchtrend -ab ../parent -workload mesh64-mp3d   # fsoibench A/B against a parent checkout (ab.go)
//
// Engine numbers are scheduler-independent; experiment wall-clock
// depends on -j and the host, so snapshots record both alongside
// GOMAXPROCS for honest comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"

	"fsoi/internal/exp"
	"fsoi/internal/lint"
	"fsoi/internal/parallel"
	"fsoi/internal/sim"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// engineBench is one testing.Benchmark measurement of the event queue.
type engineBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// expBench is one registry experiment timed at bench scale.
type expBench struct {
	WallSeconds float64            `json:"wall_seconds"`
	Values      map[string]float64 `json:"values"`
}

// lintBench times one in-process fsoilint run over the whole module:
// load (parse + type-check) and analysis (Run) separately. Both are
// serial, whatever -j says.
type lintBench struct {
	LoadSeconds float64 `json:"load_seconds"`
	RunSeconds  float64 `json:"run_seconds"`
	Packages    int     `json:"packages"`
	Findings    int     `json:"findings"`
}

// scaleBench times the 1024-node scale-half run (EXPERIMENTS.md's
// wall-clock table) on the serial engine. Snapshots up to BENCH_15 also
// timed the withdrawn windowed engine (shards, par_workers, par_cycles,
// par_wall_seconds, speedup), which reading them ignores; BENCH_1..11
// timed the serial half on the withdrawn exact sharded engine, up to
// ~1.7x slower than sim.Engine, so -check against them is lenient.
type scaleBench struct {
	Nodes             int     `json:"nodes"`
	App               string  `json:"app"`
	Scale             float64 `json:"scale"`
	SerialCycles      int64   `json:"serial_cycles"`
	SerialWallSeconds float64 `json:"serial_wall_seconds"`
}

// snapshot is the schema of one BENCH_<n>.json file. Map keys marshal
// sorted, so diffs between snapshots stay stable.
type snapshot struct {
	Index       int                    `json:"index"`
	GoVersion   string                 `json:"go_version"`
	Host        string                 `json:"host,omitempty"` // GOOS/GOARCH and CPU count; absent before BENCH_3
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	Workers     int                    `json:"workers"`
	Engine      map[string]engineBench `json:"engine"`
	Experiments map[string]expBench    `json:"experiments"`
	// Lint is absent from snapshots predating the static-analysis
	// suite; omitempty keeps old BENCH_<n>.json files comparable.
	Lint *lintBench `json:"lint,omitempty"`
	// Scale is absent from BENCH_0.json; omitempty keeps old
	// BENCH_<n>.json files comparable, and -check gates the scale run
	// only when its baseline has it.
	Scale *scaleBench `json:"scale,omitempty"`
}

// benchSchedule mirrors BenchmarkEngineSchedule in internal/sim: a
// rolling window of timed callbacks, the FSOI slot machinery's access
// pattern. The slab-backed queue must hold 0 allocs/op here.
func benchSchedule(b *testing.B) {
	e := sim.NewEngine()
	fn := func(sim.Cycle) {}
	for i := 0; i < 1024; i++ {
		e.After(sim.Cycle(i%17), fn)
	}
	e.Run(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(sim.Cycle(i%7+1), fn)
		if i%64 == 63 {
			e.Run(8)
		}
	}
	b.StopTimer()
	e.Run(16)
}

// benchChurn mirrors BenchmarkEngineChurn: 4096 pending events with
// continuous push/pop churn, where heap arity dominates.
func benchChurn(b *testing.B) {
	e := sim.NewEngine()
	var fn func(now sim.Cycle)
	fn = func(now sim.Cycle) { e.After(sim.Cycle(int(now)%31+1), fn) }
	for i := 0; i < 4096; i++ {
		e.After(sim.Cycle(i%63+1), fn)
	}
	e.Run(64)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(sim.Cycle(b.N))
}

// trackedExperiments is the registry slice each snapshot times: the
// cheap analytic table, the two figures that are Monte Carlo estimates
// (fig3's collision kernel, fig4's backoff episodes), one
// simulation-light figure, and the heavy app×network grids that the
// parallel layer exists to accelerate, fig7 being the 64-node headline
// whose time the mesh baseline sets.
var trackedExperiments = []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "faults"}

// nextIndex scans dir for BENCH_<n>.json files and returns max+1 (0 on
// a clean directory).
func nextIndex(dir string) (int, error) {
	re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	next := 0
	for _, e := range entries {
		m := re.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err == nil && n+1 > next {
			next = n + 1
		}
	}
	return next, nil
}

func main() {
	dir := flag.String("dir", ".", "directory holding the BENCH_<n>.json history")
	index := flag.Int("n", -1, "snapshot index (-1 = one past the highest existing)")
	jobs := flag.Int("j", 1, "concurrent simulations for experiment timings (0 = one per CPU)")
	check := flag.String("check", "", "regression-gate mode: re-measure the engine hot path, compare against this snapshot, exit 1 on regression; writes nothing")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op and scale-run slowdown in -check mode (allocs/op must never grow)")
	noScale := flag.Bool("noscale", false, "skip the 1024-node scale measurement (one serial 1024-node run)")
	ab := flag.String("ab", "", "A/B mode: run fsoibench in this checkout of the parent commit and in the cwd, in alternating pairs, and print each end-to-end metric's medians, quartile distances, ratio and wins; exit 1 on a failed repetition or unequal canonical_sha256; writes nothing")
	abWorkload := flag.String("workload", "", "-ab: the BENCHMARK.json workload to measure (default: every one, in turn)")
	abPairs := flag.Int("pairs", 10, "-ab: parent/change pairs per workload")
	abSeed := flag.Uint64("seed", 1, "-ab: pair i runs both sides on seed+i")
	flag.Parse()

	if *ab != "" {
		if *abPairs < 1 {
			fmt.Fprintf(os.Stderr, "benchtrend: -pairs %d: want at least 1\n", *abPairs)
			os.Exit(2)
		}
		sound, err := runAB(os.Stdout, *ab, *abWorkload, *abPairs, *abSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
			os.Exit(1)
		}
		if !sound {
			fmt.Fprintln(os.Stderr, "benchtrend: a repetition failed or a pair's canonical_sha256 differs")
			os.Exit(1)
		}
		return
	}

	if *check != "" {
		if err := checkEngine(*check, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
			os.Exit(1)
		}
		return
	}

	n := *index
	if n < 0 {
		var err error
		if n, err = nextIndex(*dir); err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
			os.Exit(1)
		}
	}

	snap := snapshot{
		Index:       n,
		GoVersion:   runtime.Version(),
		Host:        fmt.Sprintf("%s/%s, %d CPUs", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     parallel.Workers(*jobs),
		Engine:      measureEngine(),
		Experiments: make(map[string]expBench, len(trackedExperiments)),
	}

	o := exp.BenchOptions()
	o.Workers = snap.Workers
	for _, id := range trackedExperiments {
		runner, ok := exp.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtrend: unknown experiment %q\n", id)
			os.Exit(1)
		}
		start := time.Now()
		res := runner(o)
		snap.Experiments[id] = expBench{
			WallSeconds: time.Since(start).Seconds(),
			Values:      res.Values,
		}
	}

	lb, err := timeLint()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: lint timing: %v\n", err)
		os.Exit(1)
	}
	snap.Lint = lb

	if !*noScale {
		snap.Scale = measureScale()
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", n))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (engine schedule %.1f ns/op, %d allocs/op)\n",
		path, snap.Engine["schedule"].NsPerOp, snap.Engine["schedule"].AllocsPerOp)
	fmt.Printf("fsoilint: %d packages loaded in %.2fs, analyzed in %.3fs (%d findings)\n",
		lb.Packages, lb.LoadSeconds, lb.RunSeconds, lb.Findings)
	if sc := snap.Scale; sc != nil {
		fmt.Printf("scale: %d nodes serial %.2fs (GOMAXPROCS %d)\n", sc.Nodes, sc.SerialWallSeconds, snap.GOMAXPROCS)
	}
}

// measureScale times the 1024-node scale-half run — jacobi at scale
// 0.008, the EXPERIMENTS.md wall-clock table's row.
func measureScale() *scaleBench {
	const (
		nodes    = 1024
		appName  = "jacobi"
		appScale = 0.008
	)
	app, ok := workload.ByName(appName, appScale)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchtrend: unknown scale app %q\n", appName)
		os.Exit(1)
	}
	s := system.New(system.Default(nodes, system.NetFSOI))
	start := time.Now()
	m := s.Run(app)
	wall := time.Since(start).Seconds()
	if !m.Finished {
		fmt.Fprintf(os.Stderr, "benchtrend: %d-node scale run did not finish\n", nodes)
		os.Exit(1)
	}
	return &scaleBench{
		Nodes: nodes, App: appName, Scale: appScale,
		SerialCycles: int64(m.Cycles), SerialWallSeconds: wall,
	}
}

// timeLint measures one fsoilint pass over the module the snapshot is
// taken in: it walks up from the cwd to the enclosing go.mod like the
// fsoilint binary does.
func timeLint() (*lintBench, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	loaded := time.Now()
	findings := lint.Run(pkgs)
	return &lintBench{
		LoadSeconds: loaded.Sub(start).Seconds(),
		RunSeconds:  time.Since(loaded).Seconds(),
		Packages:    len(pkgs),
		Findings:    len(findings),
	}, nil
}

// checkEngine is the CI regression gate: it re-measures the engine hot
// path and fails when the schedule or churn benchmark regressed past
// the tolerance. Allocation counts are machine-independent and must
// not grow on any run; the fastest run's ns/op is compared with the
// fractional tolerance to absorb host-to-host variance, and so is the
// scale run's wall-clock when the baseline has one.
func checkEngine(baselinePath string, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	fresh := measureEngine()
	failed := false
	for _, name := range []string{"schedule", "churn"} {
		want, ok := base.Engine[name]
		if !ok {
			return fmt.Errorf("%s has no engine benchmark %q", baselinePath, name)
		}
		got := fresh[name]
		limit := want.NsPerOp * (1 + tolerance)
		verdict := "ok"
		if got.AllocsPerOp > want.AllocsPerOp {
			verdict = fmt.Sprintf("FAIL: %d allocs/op, baseline %d", got.AllocsPerOp, want.AllocsPerOp)
			failed = true
		} else if got.NsPerOp > limit {
			verdict = fmt.Sprintf("FAIL: exceeds baseline by more than %.0f%%", tolerance*100)
			failed = true
		}
		fmt.Printf("engine %-8s  %10.1f ns/op (baseline %.1f, limit %.1f)  %d allocs/op  %s\n",
			name, got.NsPerOp, want.NsPerOp, limit, got.AllocsPerOp, verdict)
	}
	if failed {
		return fmt.Errorf("engine hot path regressed against %s", baselinePath)
	}
	fmt.Printf("engine hot path within %.0f%% of %s\n", tolerance*100, baselinePath)

	// The scale gate exists only for baselines that recorded a scale
	// section; BENCH_0.json skips it, keeping -check backward-compatible.
	if base.Scale != nil {
		fresh := measureScale()
		limit := base.Scale.SerialWallSeconds * (1 + tolerance)
		verdict := "ok"
		if fresh.SerialWallSeconds > limit {
			verdict = fmt.Sprintf("FAIL: exceeds baseline by more than %.0f%%", tolerance*100)
		}
		fmt.Printf("scale %-8d  serial %.2fs (baseline %.2fs, limit %.2fs)  %s\n",
			fresh.Nodes, fresh.SerialWallSeconds, base.Scale.SerialWallSeconds, limit, verdict)
		if fresh.SerialWallSeconds > limit {
			return fmt.Errorf("scale run regressed against %s", baselinePath)
		}
	}
	return nil
}

// engineRuns is how many times each engine row is measured. This host's
// clock moves 10-40 % for minutes at a time (`schedule` read 9.7-16.8 ns
// in one session), so one reading against one reading flakes at any
// useful tolerance; the fastest of a few is the reading least disturbed.
const engineRuns = 3

// measureEngine measures the engine rows of a snapshot, which are also
// the rows -check gates.
func measureEngine() map[string]engineBench {
	rows := make(map[string]engineBench)
	for _, row := range []struct {
		name  string
		bench func(*testing.B)
	}{{"schedule", benchSchedule}, {"churn", benchChurn}} {
		runs := make([]engineBench, engineRuns)
		for i := range runs {
			runs[i] = record(testing.Benchmark(row.bench))
		}
		rows[row.name] = fastest(runs)
	}
	return rows
}

// fastest folds repeated measurements of one row into the run with the
// lowest ns/op, carrying the highest allocs/op any run showed:
// allocation counts do not depend on the clock, so one run allocating
// more is a regression whichever run was fastest.
func fastest(runs []engineBench) engineBench {
	best := runs[0]
	allocs := best.AllocsPerOp
	for _, r := range runs[1:] {
		if r.NsPerOp < best.NsPerOp {
			best = r
		}
		allocs = max(allocs, r.AllocsPerOp)
	}
	best.AllocsPerOp = allocs
	return best
}

// record converts a testing.BenchmarkResult to the snapshot schema.
func record(r testing.BenchmarkResult) engineBench {
	return engineBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
}
