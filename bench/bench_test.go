package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"fsoi/internal/system"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython 3.
	for _, c := range []struct {
		xs         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, 1},
		{[]float64{3, 1, 2}, 1, 2, 3, 1},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1},
		{[]float64{4, 4, 4, 4}, 4, 4, 4, 0},
		{[]float64{7}, 7, 7, 7, 0},
		{nil, 0, 0, 0, 0},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := spread(c.xs); math.Abs(got-c.wantSpread) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.wantSpread)
		}
	}
	if lo, hi := minMax([]float64{3, -1, 2}); lo != -1 || hi != 3 {
		t.Errorf("minMax = %v %v", lo, hi)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fsoi/internal/core.(*Network).TickNode":                          "core",
		"fsoi/internal/sim/shard.(*Windows).window.func1":                 "shard",
		"fsoi/internal/sim.(*Engine).Step":                                "sim",
		"fsoi/internal/system.New.func3":                                  "system",
		"fsoi/internal/parallel.Map[go.shape.struct { fsoi/internal/x }]": "parallel",
		"fsoi/internal/power.Params.FSOIEnergy":                           "other",
		"fsoi/bench.spin":                                                 "other",
		"runtime.mallocgc":                                                "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                          "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                          "runtime",
		"internal/bytealg.IndexByte":                                      "runtime",
		"sync.(*Mutex).Lock":                                              "runtime",
		"math.Pow":                                                        "other",
		"strconv.FormatFloat":                                             "other",
		"?":                                                               "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink float64

//go:noinline
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
}

// The decoder is checked against a profile the runtime has just written.
func TestProfileDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	weights, taken, err := leafWeights(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if taken == 0 {
		t.Skip("the profiler took no sample in 300 ms")
	}
	spun := 0.0
	for fn, w := range weights {
		if strings.HasSuffix(fn, "bench.spin") {
			spun += w
		}
	}
	if spun <= 0 {
		t.Errorf("no sample's leaf is spin; leaves: %v", weights)
	}
	total := 0.0
	for _, s := range cpuShares(weights) {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if _, _, err := leafWeights([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestTracerSelfTimeAndChromeJSON(t *testing.T) {
	tr := newTracer()
	tr.span("outer", func() {
		tr.span("inner", func() { time.Sleep(2 * time.Millisecond) })
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != "outer" || tr.spans[0].Parent != "" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	outer, inner := tr.spans[0], tr.spans[1]
	if outer.Self != outer.Dur-inner.Dur || inner.Self != inner.Dur || inner.Dur < 2*time.Millisecond {
		t.Errorf("self times wrong: %+v", tr.spans)
	}
	var nilTracer *tracer
	ran := false
	nilTracer.span("x", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the function")
	}
	data, err := marshalChrome(chromeEvents(1, "w", time.Second, tr.spans))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Fatalf("trace does not load: %v, %d events", err, len(doc.TraceEvents))
	}
	if ev := doc.TraceEvents[1]; ev.Ph != "X" || ev.Ts < 1e6 || ev.Dur <= 0 {
		t.Errorf("span event = %+v", ev)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndManifest(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range endToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}

	wantJSON, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Error("BENCHMARK.json does not list what the code emits; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
}

// tinyWorkloads are the real set-ups at roughly 1/20 size, so the whole
// measurement path runs inside the tier-1 test budget.
var tinyWorkloads = []workloadDef{
	{Name: "tiny-fsoi", threads: 1, setup: simSetup(16, system.NetFSOI, "mp3d", 64, nil, false)},
	{Name: "tiny-mesh", threads: 1, setup: simSetup(16, system.NetMesh, "mp3d", 12, nil, false)},
	{Name: "tiny-par2", threads: 2, setup: simSetup(16, system.NetFSOI, "jacobi", 16, func(c *system.Config) {
		c.ParWorkers, c.Shards = 2, 2
	}, false)},
	{Name: "tiny-observed", threads: 1, setup: simSetup(16, system.NetFSOI, "mp3d", 32, func(c *system.Config) {
		c.Observe, c.Detect = true, true
		c.Fault.MarginPenaltyDB = 2
	}, true)},
	{Name: "tiny-analytic", threads: 1, setup: analyticSetup(2000)},
}

func TestEndToEndRun(t *testing.T) {
	for _, w := range tinyWorkloads {
		res := measureEndToEnd(w, 1, 0.02)
		if res.Failed != 0 || res.Attempted != len(res.Reps) || len(res.Reps) < 2*inputsPerRun {
			t.Errorf("%s: attempted %d failed %d reps %d: %v", w.Name, res.Attempted, res.Failed, len(res.Reps), res.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, v)
			}
		}
		if len(res.SHA) != 64 {
			t.Errorf("%s: canonical_sha256 = %q", w.Name, res.SHA)
		}
		firstSHA := func(seed uint64) string {
			r := newRunner(w, seed, 0, false)
			r.rep(0, nil)
			return r.shas[0]
		}
		if again := firstSHA(1); again != res.SHA {
			t.Errorf("%s: same seed gave SHA %s then %s", w.Name, res.SHA, again)
		}
		if firstSHA(2) == res.SHA {
			t.Errorf("%s: seeds 1 and 2 gave the same output", w.Name)
		}
	}
}

func TestGridChecksGeomean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twenty 16-node simulations")
	}
	run, err := gridSetup(0.001)(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := run.run(nil)
	if out.failure != "" || out.work != 20 || !(out.counters["exp.fig6_geomean_fsoi"] > 1) {
		t.Errorf("grid outcome = %+v", out)
	}
	want := math.Abs(out.counters["exp.fig6_geomean_fsoi"]-paperFig6Geomean) / paperFig6Geomean
	if got := out.counters["exp.fig6_paper_err"]; got != want {
		t.Errorf("fig6_paper_err = %v, want %v", got, want)
	}
}

func TestPerLayerRun(t *testing.T) {
	res, err := measurePerLayer(tinyWorkloads[0], 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("failures: %v", res.Failures)
	}
	for _, d := range perLayer() {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("traced run did not emit %s", d.Name)
		}
	}
	if len(res.Metrics) != len(perLayer()) {
		t.Errorf("traced run emitted %d metrics, the list has %d", len(res.Metrics), len(perLayer()))
	}
	for _, name := range []string{"sim.events_fired", "core.attempts", "cpu.ops", "coherence.l1_misses", "system.sim_cycles", "sim.schedule_ns", "system.new_ms_n64"} {
		if !(res.Metrics[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name])
		}
	}
	names := map[string]bool{}
	for _, s := range res.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"setup", "system.New", "repetition", "System.Run", "Metrics.Canonical", "driver sim.schedule_ns"} {
		if !names[want] {
			t.Errorf("no span named %q", want)
		}
	}
	// The mesh run's flit hops come out of the energy model as a whole number.
	mesh, err := tinyWorkloads[1].setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hops := mesh.run(nil).counters["mesh.flit_hops"]; !(hops > 0) || hops != math.Trunc(hops) {
		t.Errorf("mesh.flit_hops = %v", hops)
	}
}

func TestFailuresAreCounted(t *testing.T) {
	calls := 0
	flaky := workloadDef{Name: "flaky", threads: 1, setup: func(uint64, *tracer) (built, error) {
		return built{run: func(*tracer) outcome {
			calls++
			out := outcome{text: "same", work: 1}
			switch calls {
			case 3:
				out.failure = "model said no"
			case inputsPerRun + 1:
				out.text = "differs" // input 0 again: identity check
			}
			return out
		}}, nil
	}}
	res := measureEndToEnd(flaky, 1, 0)
	if res.Attempted != 2*inputsPerRun || res.Failed != 2 || len(res.Failures) != 2 {
		t.Errorf("attempted %d failed %d: %v", res.Attempted, res.Failed, res.Failures)
	}

	broken := workloadDef{Name: "broken", threads: 1, setup: func(uint64, *tracer) (built, error) {
		return built{}, errors.New("no such input")
	}}
	res = measureEndToEnd(broken, 1, 0)
	if res.Attempted != 2*inputsPerRun || res.Failed != res.Attempted || len(res.Reps) != 0 || len(res.Metrics) != 0 {
		t.Errorf("failed set-ups: attempted %d failed %d reps %d metrics %v", res.Attempted, res.Failed, len(res.Reps), res.Metrics)
	}
}

func TestSummarise(t *testing.T) {
	m := summarise([]repSample{
		{Input: 0, HostS: 1.5, AllocMB: 10, Work: 100},
		{Input: 1, HostS: 2.0, AllocMB: 20, Work: 300},
		{Input: 0, HostS: 1.0, AllocMB: 12, Work: 100},
		{Input: 1, HostS: 3.0, AllocMB: 22, Work: 300},
	}, [][]float64{{0.002, 0.001}, {0.004, 0.003, 0.005}})
	// Fastest repetition of each input, median allocation, mean over inputs.
	want := map[string]float64{"host_s": 1.5, "setup_s": 0.002, "alloc_mb": 16, "work_per_s": 400 / 3.0}
	for name, w := range want {
		if got := m[name]; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if len(m) != len(endToEnd) {
		t.Errorf("summarise gave %d figures, there are %d end-to-end metrics", len(m), len(endToEnd))
	}
}

func TestCompare(t *testing.T) {
	row := func(better string, values ...float64) e2eRow {
		r := e2eRow{metricDef: metricDef{Name: "m", Unit: "s", Better: better, Bound: 0.1}, Values: values}
		r.Q1, r.Median, r.Q3 = quartiles(values)
		r.RepMin, r.RepMax = minMax(values)
		return r
	}
	for _, c := range []struct {
		name string
		a, b e2eRow
		want string
	}{
		{"same", row("lower", 1, 1.01, 1.02, 1.03), row("lower", 1.01, 1.02, 1.02, 1.03), "ok"},
		{"slower", row("lower", 1, 1.01, 1.02, 1.03), row("lower", 1.2, 1.21, 1.22, 1.23), "regressed"},
		{"faster", row("lower", 1, 1.01, 1.02, 1.03), row("lower", 0.5, 0.51, 0.52, 0.53), "ok"},
		{"less work", row("higher", 100, 101, 102, 103), row("higher", 80, 81, 82, 83), "regressed"},
		{"more work", row("higher", 100, 101, 102, 103), row("higher", 120, 121, 122, 123), "ok"},
		{"noisy", row("lower", 1, 1.2, 1.4, 1.6), row("lower", 1.3, 1.5, 1.7, 1.9), "unresolved"},
		{"noisy but apart", row("lower", 1, 1.2, 1.4, 1.6), row("lower", 2, 2.4, 2.8, 3.2), "regressed"},
		{"one run each", row("lower", 1), row("lower", 1.05), "ok"},
	} {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}

	dir := t.TempDir()
	file := func(name string, host e2eRow) string {
		path := filepath.Join(dir, name)
		r := resultFile{Workloads: []workloadResult{{workloadDef: workloadDef{Name: "w"}, SHA: name, EndToEnd: []e2eRow{host}}}}
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := file("a.json", row("lower", 1, 1.01, 1.02, 1.03))
	b := file("b.json", row("lower", 1.2, 1.21, 1.22, 1.23))
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, a); err != nil || regressed {
		t.Errorf("A against A: regressed %v, err %v", regressed, err)
	}
	out.Reset()
	regressed, err := compareFiles(&out, a, b)
	if err != nil || !regressed {
		t.Errorf("A against slower B: regressed %v, err %v", regressed, err)
	}
	for _, want := range []string{"regressed", "canonical_sha256 differs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file compared without error")
	}
}
