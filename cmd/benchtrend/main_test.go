package main

import (
	"math"
	"strings"
	"testing"
)

// TestFastestKeepsMinTimeAndMaxAllocs: the gate compares the least
// disturbed time, and an allocation seen on any run still counts.
func TestFastestKeepsMinTimeAndMaxAllocs(t *testing.T) {
	got := fastest([]engineBench{
		{NsPerOp: 16.8, AllocsPerOp: 0, BytesPerOp: 0, N: 100},
		{NsPerOp: 9.7, AllocsPerOp: 0, BytesPerOp: 0, N: 300},
		{NsPerOp: 12.1, AllocsPerOp: 1, BytesPerOp: 24, N: 200},
	})
	if want := (engineBench{NsPerOp: 9.7, AllocsPerOp: 1, BytesPerOp: 0, N: 300}); got != want {
		t.Fatalf("fastest = %+v, want %+v", got, want)
	}
	if one := fastest([]engineBench{{NsPerOp: 5, AllocsPerOp: 2}}); one.NsPerOp != 5 || one.AllocsPerOp != 2 {
		t.Fatalf("fastest of one run = %+v", one)
	}
}

// cannedRun is what `bench/run.sh --trace 0` prints, shortened.
const cannedRun = `workload mesh64-mp3d seed 1 seconds 3 trace false
host_s                                   0.00560542 s
fail_frac                                         0
canonical_sha256                   15e5e5d28ec26b1baf24e262d07ac4c3c1a5662fc7d51c038fdb2194b2931b3e
{"correct":true,"attempted":140,"failed":0,"metrics":{"alloc_mb":{"value":1.0872,"unit":"MB"},"host_s":{"value":0.005605,"unit":"s"},"setup_s":{"value":0.0001266,"unit":"s"},"work_per_s":{"value":236021.5,"unit":"1/s"}}}
`

func TestParseRunReadsTheFinalLineAndTheHash(t *testing.T) {
	run, err := parseRun([]byte(cannedRun))
	if err != nil {
		t.Fatal(err)
	}
	if run.Failed != 0 || run.SHA != "15e5e5d28ec26b1baf24e262d07ac4c3c1a5662fc7d51c038fdb2194b2931b3e" ||
		len(run.Metrics) != 4 || run.Metrics["host_s"] != 0.005605 || run.Metrics["work_per_s"] != 236021.5 {
		t.Fatalf("parseRun = %+v", run)
	}
	for name, out := range map[string]string{
		"failed repetitions": strings.Replace(cannedRun, `"failed":0`, `"failed":3`, 1),
		"incorrect":          strings.Replace(cannedRun, `"correct":true`, `"correct":false`, 1),
	} {
		if run, err := parseRun([]byte(out)); err != nil || run.Failed == 0 {
			t.Errorf("%s: parseRun = %+v, %v; want a run that counts as failed", name, run, err)
		}
	}
	for name, out := range map[string]string{
		"no hash":       strings.Replace(cannedRun, "canonical_sha256", "sha", 1),
		"no JSON":       "host_s 1 s\n",
		"other JSON":    `{"hello":1}` + "\n",
		"truncated run": cannedRun[:strings.Index(cannedRun, `{"correct"`)] + `{"correct":true,`,
	} {
		if run, err := parseRun([]byte(out)); err == nil {
			t.Errorf("%s: parseRun = %+v, want an error", name, run)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) from CPython 3, as bench/ pins them.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		if q1, m, q3 := quartiles(c.xs); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestCompareRunsAppliesThePairsRule: ten pairs in which the change is
// 1.25x faster in nine and slower in one, and allocates the same.
func TestCompareRunsAppliesThePairsRule(t *testing.T) {
	metrics := []abMetric{{"host_s", "lower"}, {"work_per_s", "higher"}, {"alloc_mb", "lower"}}
	parent, pr := make([]abRun, 10), make([]abRun, 10)
	for i := range parent {
		host := 1 + 0.01*float64(i) // parent quartiles 0.055 apart
		parent[i] = abRun{SHA: "a", Metrics: map[string]float64{"host_s": host, "work_per_s": 100 / host, "alloc_mb": 2}}
		pr[i] = abRun{SHA: "a", Metrics: map[string]float64{"host_s": host / 1.25, "work_per_s": 125 / host, "alloc_mb": 2}}
	}
	pr[3].Metrics["host_s"], pr[3].Metrics["work_per_s"] = 2, 50
	rows := compareRuns(metrics, parent, pr)
	host, work, alloc := rows[0], rows[1], rows[2]
	if host.Wins != 9 || host.Pairs != 10 || !host.gained() || math.Abs(host.ParentMed-1.045) > 1e-12 ||
		math.Abs(host.ParentIQR-0.055) > 1e-12 || host.Ratio < 1.2 || host.Ratio > 1.3 {
		t.Errorf("host_s row = %+v, gained %v", host, host.gained())
	}
	if work.Wins != 9 || !work.gained() || work.Ratio < 1.2 {
		t.Errorf("work_per_s row = %+v, gained %v", work, work.gained())
	}
	if alloc.Wins != 0 || alloc.gained() || alloc.Ratio != 1 {
		t.Errorf("alloc_mb row = %+v: a tie is a win for neither", alloc)
	}
	// Eight wins of ten is not nine tenths, however large the gap.
	pr[4].Metrics["host_s"] = 2
	if row := compareRuns(metrics[:1], parent, pr)[0]; row.Wins != 8 || row.gained() {
		t.Errorf("8/10 row = %+v, gained %v", row, row.gained())
	}

	var out strings.Builder
	if !printRows(&out, "w", rows, parent, pr) || !strings.Contains(out.String(), "canonical_sha256 differs on 0, 0 failed") {
		t.Errorf("sound runs reported unsound:\n%s", out.String())
	}
	pr[0].SHA = "b"
	if printRows(&out, "w", rows, parent, pr) {
		t.Error("a pair with unequal hashes reported sound")
	}
	pr[0].SHA, parent[9].Failed = "a", 1
	if printRows(&out, "w", rows, parent, pr) {
		t.Error("a failed repetition reported sound")
	}
}
