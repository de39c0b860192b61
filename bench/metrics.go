package main

import (
	"encoding/json"
	"math"
	"sort"
)

// runSeconds is the measured span of one run when -seconds is not given;
// BENCHMARK.json's run_seconds carries the same number.
const runSeconds = 15

// metricDef names one metric. Bound is the share of the baseline median
// by which an end-to-end metric may worsen before -compare calls it a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The end-to-end metrics are what a user of the simulator sees; every
// workload of an untraced run emits all four. The timing bounds are the
// contract's ceiling: across ten seeds the timings spread 3-7% on a quiet
// reference host and up to 14% on a loud one (README.md, "Baseline").
// Allocation repeats exactly for one input but moves 5% with the seed on
// the 256-node rows, which its bound has to clear three times over.
var (
	hostS    = metricDef{Name: "host_s", Unit: "s", Better: "lower", Bound: 0.25}
	workPerS = metricDef{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}
	setupS   = metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	allocMB  = metricDef{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.2}

	endToEnd = []metricDef{hostS, workPerS, setupS, allocMB}
)

// cpuLayers are the module's packages that get their own CPU-share
// bucket, in report order; "runtime" and "other" follow them.
var cpuLayers = []string{
	"sim", "shard", "parallel", "core", "mesh", "coherence", "cache", "cpu",
	"workload", "memory", "noc", "obs", "fault", "stats", "analytic", "exp", "system",
}

// shareLayers are all the CPU-share buckets; the shares sum to 1.
var shareLayers = append(append([]string{}, cpuLayers...), "runtime", "other")

// counterDefs are the exact counts and ratios read after a traced
// repetition. Counts repeat exactly for one seed; the ns ratios do not.
var counterDefs = []metricDef{
	{Name: "system.sim_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim.events_fired", Unit: "count", Better: "lower"},
	{Name: "sim.max_queue_depth", Unit: "count", Better: "lower"},
	{Name: "shard.windows", Unit: "count", Better: "lower"},
	{Name: "shard.handoffs", Unit: "count", Better: "lower"},
	{Name: "shard.tight_handoffs", Unit: "count", Better: "lower"},
	{Name: "core.attempts", Unit: "count", Better: "lower"},
	{Name: "core.collided", Unit: "count", Better: "lower"},
	{Name: "core.delivered_per_attempt", Unit: "ratio", Better: "higher"},
	{Name: "core.confirm_signals", Unit: "count", Better: "lower"},
	{Name: "core.bit_errors", Unit: "count", Better: "lower"},
	{Name: "core.timeout_retransmits", Unit: "count", Better: "lower"},
	{Name: "noc.packets_meta", Unit: "count", Better: "lower"},
	{Name: "noc.packets_data", Unit: "count", Better: "lower"},
	{Name: "noc.latency_mean_cycles", Unit: "cycles", Better: "lower"},
	{Name: "mesh.flit_hops", Unit: "count", Better: "lower"},
	{Name: "coherence.l1_hits", Unit: "count", Better: "higher"},
	{Name: "coherence.l1_misses", Unit: "count", Better: "lower"},
	{Name: "coherence.dir_requests", Unit: "count", Better: "lower"},
	{Name: "coherence.nacks", Unit: "count", Better: "lower"},
	{Name: "coherence.inv_sent", Unit: "count", Better: "lower"},
	{Name: "coherence.elided_acks", Unit: "count", Better: "higher"},
	{Name: "cpu.ops", Unit: "count", Better: "higher"},
	{Name: "cpu.stall_load_cycles", Unit: "cycles", Better: "lower"},
	{Name: "cpu.stall_sync_cycles", Unit: "cycles", Better: "lower"},
	{Name: "memory.reads", Unit: "count", Better: "lower"},
	{Name: "obs.events", Unit: "count", Better: "lower"},
	{Name: "obs.lost", Unit: "count", Better: "lower"},
	{Name: "obs.flagged_links", Unit: "count", Better: "lower"},
	{Name: "exp.fig6_geomean_fsoi", Unit: "ratio", Better: "higher"},
	{Name: "exp.fig6_paper_err", Unit: "ratio", Better: "lower"},
	{Name: "system.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "system.ns_per_node_cycle", Unit: "ns", Better: "lower"},
	{Name: "system.ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "system.alloc_bytes_per_event", Unit: "B", Better: "lower"},
}

// harnessDefs are measured about the traced run itself.
var harnessDefs = []metricDef{
	{Name: "shard.worker_idle_frac", Unit: "share", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "bench.clock_scale", Unit: "ratio", Better: "higher"},
	{Name: "bench.profile_samples", Unit: "count", Better: "higher"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer lists every metric a traced run emits, in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range shareLayers {
		out = append(out, metricDef{Name: l + ".cpu_share", Unit: "share", Better: "lower"})
	}
	out = append(out, counterDefs...)
	for _, d := range drivers {
		out = append(out, d.metricDef)
	}
	return append(out, harnessDefs...)
}

// manifestJSON renders BENCHMARK.json, the driver's description of this
// benchmark, from the lists above, so the file cannot drift from the code:
// `go run ./bench -manifest > BENCHMARK.json`, and a test compares them.
func manifestJSON() ([]byte, error) {
	data, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}, "", "  ")
	return append(data, '\n'), err
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (exclusive
// method, extrapolating at the ends), so the spreads printed here are the
// ones the acceptance check computes. With fewer than two values all
// three are the single value (or 0).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median:
// the steadiness figure the bounds are judged against.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
