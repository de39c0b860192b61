package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fsoi/internal/sim"
)

// repSample is the timing of one repetition.
type repSample struct {
	Input   int     `json:"input"` // index of the generated input it ran
	HostS   float64 `json:"host_s"`
	AllocMB float64 `json:"alloc_mb"`
	Work    float64 `json:"work"`
}

// runResult is everything one run (one process, one workload, one seed)
// measured. Metrics holds what the run's last line reports; the rest is
// the detail the suite folds into result.json and trace.json.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	SHA       string             `json:"canonical_sha256"`   // of input 0's output
	Scale     float64            `json:"clock_scale"`        // applied to Metrics' times; Setups and Reps are wall time
	Setups    [][]float64        `json:"setups_s,omitempty"` // per input, every timed set-up
	Reps      []repSample        `json:"reps"`
	Metrics   map[string]float64 `json:"metrics"`
	Spans     []span             `json:"spans,omitempty"`
}

// runner carries one run's state between repetitions.
type runner struct {
	w     workloadDef
	seeds [inputsPerRun]uint64 // the model seed of each generated input
	shas  map[int]string       // input index -> SHA-256 of its first output
	res   *runResult
	last  outcome // the latest repetition's, for the exact counters
	clk   clock
}

func newRunner(w workloadDef, seed uint64, seconds float64, traced bool) *runner {
	r := &runner{
		w:    w,
		shas: map[int]string{},
		res:  &runResult{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced, Metrics: map[string]float64{}},
	}
	inputs := sim.NewRNG(seed).NewStream("bench-inputs").NewStream(w.Name)
	for i := range r.seeds {
		r.seeds[i] = inputs.Uint64()
	}
	return r
}

func (r *runner) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
}

// timeSetups builds the given input setupRounds times and records each
// set-up's seconds. Set-up is timed apart from the repetitions because it
// takes microseconds to a millisecond: only many samples, spread over the
// run, find its undisturbed time. Each starts from a collected heap, as a
// repetition's does; back to back, the collector's own work triples the
// larger ones. A set-up that fails is left to rep to report.
func (r *runner) timeSetups(input int) {
	for n := 0; n < setupRounds; n++ {
		runtime.GC()
		began := time.Now()
		b, err := r.w.setup(r.seeds[input], nil)
		took := time.Since(began).Seconds()
		if err != nil {
			return
		}
		r.res.Setups[input] = append(r.res.Setups[input], took)
		if b.release != nil {
			b.release()
		}
	}
}

// rep runs one repetition on the given input and checks its output. The
// heap the previous repetition left is collected first, outside the
// timing, so each starts clean. host_s is building the inputs, run,
// collection and exports. ok is false when set-up failed and there is
// nothing to time.
func (r *runner) rep(input int, tr *tracer) (s repSample, ok bool) {
	r.res.Attempted++
	r.clk.sample()
	var (
		before, after runtime.MemStats
		b             built
		err           error
	)
	tr.span("runtime.GC", func() {
		runtime.GC()
		runtime.ReadMemStats(&before)
	})
	start := time.Now()
	tr.span("setup", func() { b, err = r.w.setup(r.seeds[input], tr) })
	s = repSample{Input: input}
	if err != nil {
		r.fail("input %d: set-up: %v", input, err)
		return s, false
	}
	tr.span("repetition", func() { r.last = b.run(tr) })
	s.HostS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	s.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	s.Work = r.last.work
	if ev := r.last.counters["sim.events_fired"]; ev > 0 {
		r.last.counters["system.alloc_bytes_per_event"] = float64(after.TotalAlloc-before.TotalAlloc) / ev
	}

	if r.last.failure != "" {
		r.fail("input %d: %s", input, r.last.failure)
	}
	sum := sha256.Sum256([]byte(r.last.text))
	sha := hex.EncodeToString(sum[:])
	if first, seen := r.shas[input]; !seen {
		r.shas[input] = sha
	} else if first != sha {
		r.fail("input %d: output SHA-256 %s differs from its first run's %s", input, sha, first)
	}
	return s, true
}

// repsFor runs repetitions over inputs 0..inputs-1 in turn until the next
// one would overrun d, and at least two per input: the second run of an
// input must hash to the first, which is the in-process identity check.
// With setups, each repetition is preceded by timed set-ups of its input.
func (r *runner) repsFor(d time.Duration, inputs int, tr *tracer, setups bool) []repSample {
	var (
		out  []repSample
		last time.Duration
	)
	start := time.Now()
	for n := 0; n < 2*inputs || time.Since(start)+last <= d; n++ {
		if tr != nil {
			tr.rep = n
		}
		began := time.Now()
		if setups {
			r.timeSetups(n % inputs)
		}
		if s, ok := r.rep(n%inputs, tr); ok {
			out = append(out, s)
		}
		last = time.Since(began)
	}
	return out
}

// sampleValues lists every single sample of a run behind one end-to-end
// metric, its set-ups or its repetitions, on the nominal clock.
func sampleValues(res *runResult, d metricDef) []float64 {
	var out []float64
	if d.Name == setupS.Name {
		for _, samples := range res.Setups {
			out = append(out, samples...)
		}
	} else {
		out = repValues(res.Reps, d.Name)
	}
	for i, v := range out {
		out[i] = nominal(d.Unit, v, res.Scale)
	}
	return out
}

// repValues lists one end-to-end metric over repetitions.
func repValues(reps []repSample, metric string) []float64 {
	out := make([]float64, len(reps))
	for i, s := range reps {
		switch metric {
		case hostS.Name:
			out[i] = s.HostS
		case allocMB.Name:
			out[i] = s.AllocMB
		case workPerS.Name:
			if s.HostS > 0 {
				out[i] = s.Work / s.HostS
			}
		}
	}
	return out
}

// summarise reduces a run's repetitions to the end-to-end figures, still
// on the wall clock. The host this was built on slows for seconds at a
// time, most of all where code misses in cache (in one recording a 4 MB
// pointer chase sits at 1.37x its fastest pass at the 90th percentile, an
// allocation loop at 1.47x, the simulator at 1.36x), so an input's time is
// that of its fastest repetition, the one pace a run reaches again
// whatever the neighbours do: between 12 s windows of one recorded series
// the minimum moved 3.5%, the lower quartile 10% and the median 6%.
// Allocation is not disturbed and is an input's median. The figures are
// means over the run's inputs; work_per_s is their total work over their
// total time. setups holds the set-up times by input and may be nil,
// which leaves setup_s out.
func summarise(reps []repSample, setups [][]float64) map[string]float64 {
	byInput := map[int][]repSample{}
	for _, s := range reps {
		byInput[s.Input] = append(byInput[s.Input], s)
	}
	var host, alloc, work float64
	for input := 0; input < len(byInput); input++ {
		visits := byInput[input]
		h, _ := minMax(repValues(visits, hostS.Name))
		_, a, _ := quartiles(repValues(visits, allocMB.Name))
		host, alloc, work = host+h, alloc+a, work+visits[0].Work
	}
	if host == 0 {
		return map[string]float64{} // no repetition got past set-up
	}
	n := float64(len(byInput))
	m := map[string]float64{hostS.Name: host / n, workPerS.Name: work / host, allocMB.Name: alloc / n}
	for _, samples := range setups {
		fastest, _ := minMax(samples)
		m[setupS.Name] += fastest / float64(len(setups))
	}
	return m
}

// inputsPerRun is how many inputs an untraced run draws from its seed and
// cycles through, so that its figures average over inputs instead of
// inheriting one input's luck: with the seed alone, the mesh's simulated
// cycles move 7% (quartile distance) at this size. A traced run repeats
// input 0 only, so its counts are exact for a seed and its profile
// samples one program.
const inputsPerRun = 3

// setupRounds is how many times an untraced run times set-up alone before
// each repetition: a few per cent of the run's span at most.
const setupRounds = 8

// measureEndToEnd is the untraced run. There is no separate warm-up: an
// input's first repetition pays for heap growth and page faults, and the
// minimum leaves it out.
func measureEndToEnd(w workloadDef, seed uint64, seconds float64) *runResult {
	r := newRunner(w, seed, seconds, false)
	r.res.Setups = make([][]float64, inputsPerRun)
	r.res.Reps = r.repsFor(time.Duration(seconds*float64(time.Second)), inputsPerRun, nil, true)
	r.res.SHA = r.shas[0]
	r.res.Metrics = summarise(r.res.Reps, r.res.Setups)
	r.toNominalClock(endToEnd)
	return r.res
}

// toNominalClock scales the run's times (and rates per time) by the run's
// fastest probe pass; see clock.go.
func (r *runner) toNominalClock(defs []metricDef) {
	r.clk.sample()
	r.res.Scale = r.clk.scale()
	for _, d := range defs {
		if v, measured := r.res.Metrics[d.Name]; measured {
			r.res.Metrics[d.Name] = nominal(d.Unit, v, r.res.Scale)
		}
	}
}

// The traced run splits its span: untraced repetitions for the overhead
// baseline, repetitions under the CPU profiler and the span recorder, and
// the layer drivers.
const (
	baselineShare = 0.2
	profiledShare = 0.45
	driverShare   = 0.35
)

func measurePerLayer(w workloadDef, seed uint64, seconds float64) (*runResult, error) {
	r := newRunner(w, seed, seconds, true)
	span := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	baseline := r.repsFor(span(baselineShare), 1, nil, false)
	r.res.SHA = r.shas[0]

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	cpu0, wall0 := processCPU(), time.Now()
	traced := r.repsFor(span(profiledShare), 1, tr, false)
	wall, cpu := time.Since(wall0), processCPU()-cpu0
	pprof.StopCPUProfile()
	r.res.Reps = traced
	counters := r.last.counters
	peakRSS := peakRSSMB() // before the drivers build their own systems

	m := r.res.Metrics
	for _, d := range counterDefs {
		m[d.Name] = counters[d.Name]
	}
	weights, samples, err := leafWeights(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := cpuShares(weights)
	for _, l := range shareLayers {
		m[l+".cpu_share"] = shares[l]
	}
	budget := span(driverShare) / time.Duration(len(drivers))
	for _, d := range drivers {
		r.clk.sample()
		tr.span("driver "+d.Name, func() { m[d.Name] = d.run(budget) })
	}
	r.toNominalClock(perLayer())
	m["bench.clock_scale"] = r.res.Scale
	m["shard.worker_idle_frac"] = 1 - cpu.Seconds()/(wall.Seconds()*float64(w.threads))
	if base := summarise(baseline, nil)[hostS.Name]; base > 0 {
		m["bench.trace_overhead"] = summarise(traced, nil)[hostS.Name]/base - 1
	}
	m["bench.profile_samples"] = float64(samples)
	m["bench.peak_rss_mb"] = peakRSS
	r.res.Spans = tr.spans
	return r.res, nil
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
