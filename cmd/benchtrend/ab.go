package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// The -ab mode is the alternating-pairs driver every performance claim
// since PR 16 was measured with: it runs fsoibench (BENCHMARK.json's
// command) in a checkout of the parent commit and in the current
// directory, pair by pair on seeds seed, seed+1, ..., alternating
// which side goes first so a drifting host clock taxes both sides alike,
// and reports each end-to-end metric the way choosing-metrics section 8
// judges a claim: both medians, both quartile distances, the ratio with
// its base, and the pairs the change won.

// manifest is what -ab needs of BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []abMetric `json:"end_to_end"`
}

// abMetric is one end-to-end metric and which way is better.
type abMetric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// abRun is what one fsoibench run printed.
type abRun struct {
	Failed  int
	SHA     string
	Metrics map[string]float64
}

var shaLine = regexp.MustCompile(`(?m)^canonical_sha256\s+([0-9a-f]{64})\s*$`)

// parseRun reads a run's output: the metrics of its final JSON line and
// the canonical hash of the line fsoibench prints before it.
func parseRun(out []byte) (abRun, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var last struct {
		Correct *bool `json:"correct"`
		Failed  int   `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return abRun{}, fmt.Errorf("final line is not the result JSON: %w", err)
	}
	if last.Correct == nil || len(last.Metrics) == 0 {
		return abRun{}, fmt.Errorf("final line has no \"correct\" or no \"metrics\"")
	}
	sha := shaLine.FindSubmatch(out)
	if sha == nil {
		return abRun{}, fmt.Errorf("no canonical_sha256 line")
	}
	run := abRun{Failed: last.Failed, SHA: string(sha[1]), Metrics: make(map[string]float64, len(last.Metrics))}
	if !*last.Correct && run.Failed == 0 {
		run.Failed = 1 // an incorrect run failed, whatever it counted
	}
	for name, m := range last.Metrics {
		run.Metrics[name] = m.Value
	}
	return run, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) and bench/metrics.go do, so
// the distances printed here are the ones the acceptance check computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// abRow is the verdict on one metric over all pairs.
type abRow struct {
	Metric               abMetric
	ParentMed, ParentIQR float64
	PRMed, PRIQR         float64
	Ratio                float64 // > 1 when the change is better: parent/PR for "lower", PR/parent for "higher"
	Wins, Pairs          int     // pairs the change read strictly better in; ties count for neither
}

// compareRuns folds the paired runs into one row per metric.
func compareRuns(metrics []abMetric, parent, pr []abRun) []abRow {
	rows := make([]abRow, 0, len(metrics))
	for _, m := range metrics {
		a, b := make([]float64, len(parent)), make([]float64, len(pr))
		row := abRow{Metric: m, Pairs: len(parent)}
		for i := range parent {
			a[i], b[i] = parent[i].Metrics[m.Name], pr[i].Metrics[m.Name]
			if m.Better == "higher" && b[i] > a[i] || m.Better != "higher" && b[i] < a[i] {
				row.Wins++
			}
		}
		q1, med, q3 := quartiles(a)
		row.ParentMed, row.ParentIQR = med, q3-q1
		q1, med, q3 = quartiles(b)
		row.PRMed, row.PRIQR = med, q3-q1
		if m.Better == "higher" {
			row.Ratio = row.PRMed / row.ParentMed
		} else {
			row.Ratio = row.ParentMed / row.PRMed
		}
		rows = append(rows, row)
	}
	return rows
}

// gained applies section 8's rule for claiming a gain on one row.
func (r abRow) gained() bool {
	gap := r.ParentMed - r.PRMed
	if r.Metric.Better == "higher" {
		gap = -gap
	}
	return 10*r.Wins >= 9*r.Pairs && gap > r.ParentIQR
}

// printRows writes one workload's table and reports whether the runs
// were sound: no failed repetition and equal canonical hashes per pair.
func printRows(w io.Writer, workload string, rows []abRow, parent, pr []abRun) bool {
	failed, differ := 0, 0
	for i := range parent {
		failed += parent[i].Failed + pr[i].Failed
		if parent[i].SHA != pr[i].SHA {
			differ++
		}
	}
	fmt.Fprintf(w, "%s: %d pairs, canonical_sha256 differs on %d, %d failed repetitions\n", workload, len(parent), differ, failed)
	fmt.Fprintf(w, "  %-12s %12s %10s %12s %10s %8s %-12s %6s  %s\n",
		"metric", "parent med", "quartiles", "change med", "quartiles", "ratio", "base", "wins", "gain")
	for _, r := range rows {
		base := "parent/change"
		if r.Metric.Better == "higher" {
			base = "change/parent"
		}
		fmt.Fprintf(w, "  %-12s %12.6g %10.3g %12.6g %10.3g %7.3fx %-12s %3d/%-2d  %v\n",
			r.Metric.Name, r.ParentMed, r.ParentIQR, r.PRMed, r.PRIQR, r.Ratio, base, r.Wins, r.Pairs, r.gained())
	}
	return failed == 0 && differ == 0
}

// benchRun runs BENCHMARK.json's command in dir and parses its output.
func benchRun(dir string, m manifest, workload string, seed uint64) (abRun, error) {
	args := append(append([]string(nil), m.Command[1:]...),
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(m.RunSeconds), "--trace", "0")
	cmd := exec.Command(m.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return abRun{}, fmt.Errorf("%s: %v in %s: %w", workload, cmd.Args, dir, err)
	}
	run, err := parseRun(out)
	if err != nil {
		return abRun{}, fmt.Errorf("%s seed %d in %s: %w", workload, seed, dir, err)
	}
	return run, nil
}

// runAB measures workload (every workload of BENCHMARK.json when empty)
// over pairs alternating pairs and reports whether every run was sound.
func runAB(w io.Writer, parentDir, workload string, pairs int, seed uint64) (bool, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(m.Command) == 0 || m.RunSeconds <= 0 || len(m.EndToEnd) == 0 {
		return false, fmt.Errorf("BENCHMARK.json names no command, run_seconds or end_to_end metric")
	}
	if _, err := os.Stat(filepath.Join(parentDir, "BENCHMARK.json")); err != nil {
		return false, fmt.Errorf("-ab wants a checkout of the parent commit: %w", err)
	}
	var workloads []string
	for _, wl := range m.Workloads {
		if workload == "" || workload == wl.Name {
			workloads = append(workloads, wl.Name)
		}
	}
	if len(workloads) == 0 {
		return false, fmt.Errorf("BENCHMARK.json has no workload %q", workload)
	}
	sound := true
	for _, wl := range workloads {
		parent, pr := make([]abRun, pairs), make([]abRun, pairs)
		for i := 0; i < pairs; i++ {
			// The parent goes first in pairs 0, 2, ..., the change in the rest.
			sides := [2]struct {
				dir string
				run *abRun
			}{{parentDir, &parent[i]}, {".", &pr[i]}}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				if *s.run, err = benchRun(s.dir, m, wl, seed+uint64(i)); err != nil {
					return false, err
				}
			}
		}
		if !printRows(w, wl, compareRuns(m.EndToEnd, parent, pr), parent, pr) {
			sound = false
		}
	}
	return sound, nil
}
