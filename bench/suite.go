package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// suiteFlags are the flags a result file records; there are no size knobs.
type suiteFlags struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Runs     int     `json:"runs"`
}

// hostFacts say where a result file was measured.
type hostFacts struct {
	Hostname   string `json:"hostname"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

// e2eRow is one workload x end-to-end metric of a result file: the value
// of every untraced run, their quartiles, and the lowest and highest
// single repetition of the first run (the only spread a one-run file has).
type e2eRow struct {
	metricDef
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	RepMin float64   `json:"rep_min"`
	RepMax float64   `json:"rep_max"`
}

// layerRow is one per-layer metric of the traced run.
type layerRow struct {
	metricDef
	Value float64 `json:"value"`
}

type workloadResult struct {
	workloadDef
	Attempted int        `json:"attempted"` // repetitions, plus one per child that exited non-zero
	Failed    int        `json:"failed"`
	FailFrac  float64    `json:"fail_frac"`
	Failures  []string   `json:"failures,omitempty"`
	SHA       string     `json:"canonical_sha256"`
	TimedReps []int      `json:"timed_repetitions"` // per untraced run
	EndToEnd  []e2eRow   `json:"end_to_end"`
	PerLayer  []layerRow `json:"per_layer"`
}

type resultFile struct {
	Host      hostFacts        `json:"host"`
	Flags     suiteFlags       `json:"flags"`
	Workloads []workloadResult `json:"workloads"`
}

func gatherHost() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	h.Hostname, _ = os.Hostname()
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// child runs one measured run in a fresh process of this same binary and
// returns its detail. The child's report goes to our standard output.
func child(self, outDir string, w workloadDef, seed uint64, seconds float64, traced bool) (*runResult, error) {
	detail := filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", w.Name, b2i(traced)))
	cmd := exec.Command(self,
		"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(b2i(traced)), "-detail", detail)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %t: %w", w.Name, seed, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), new(lastLine)); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %t: last line is not a result: %w", w.Name, seed, traced, err)
	}
	data, err := os.ReadFile(detail)
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", detail, err)
	}
	if err := os.Remove(detail); err != nil {
		return nil, err
	}
	return &res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runSuite measures every selected workload, one child at a time.
func runSuite(flags suiteFlags, outDir string) error {
	selected := workloads
	if flags.Workload != "" {
		selected = nil
		for _, name := range strings.Split(flags.Workload, ",") {
			w, ok := workloadByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
			}
			selected = append(selected, w)
		}
	}
	if flags.Runs < 1 {
		return errors.New("-runs must be at least 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	out := resultFile{Host: gatherHost(), Flags: flags}
	var events []chromeEvent
	suiteStart := time.Now()
	failed := false
	for i, w := range selected {
		wr := workloadResult{workloadDef: w}
		note := func(res *runResult, err error) {
			if err != nil {
				wr.Attempted++
				wr.Failed++
				wr.Failures = append(wr.Failures, err.Error())
				return
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Failures = append(wr.Failures, res.Failures...)
		}
		var untraced []*runResult
		for k := 0; k < flags.Runs; k++ {
			res, err := child(self, outDir, w, flags.Seed+uint64(k), flags.Seconds, false)
			note(res, err)
			if err == nil {
				untraced = append(untraced, res)
				wr.TimedReps = append(wr.TimedReps, len(res.Reps))
			}
		}
		for _, d := range endToEnd {
			row := e2eRow{metricDef: d}
			for _, res := range untraced {
				row.Values = append(row.Values, res.Metrics[d.Name])
			}
			row.Q1, row.Median, row.Q3 = quartiles(row.Values)
			if len(untraced) > 0 {
				row.RepMin, row.RepMax = minMax(sampleValues(untraced[0], d))
			}
			wr.EndToEnd = append(wr.EndToEnd, row)
		}
		if len(untraced) > 0 {
			wr.SHA = untraced[0].SHA
		}
		tracedStart := time.Since(suiteStart)
		res, err := child(self, outDir, w, flags.Seed, flags.Seconds, true)
		note(res, err)
		if err == nil {
			for _, d := range perLayer() {
				wr.PerLayer = append(wr.PerLayer, layerRow{metricDef: d, Value: res.Metrics[d.Name]})
			}
			events = append(events, chromeEvents(i+1, w.Name, tracedStart, res.Spans)...)
			if wr.SHA != "" && res.SHA != wr.SHA {
				wr.Failed++
				wr.Failures = append(wr.Failures, fmt.Sprintf("traced run's output SHA-256 %s differs from the untraced run's %s", res.SHA, wr.SHA))
			}
		}
		wr.FailFrac = float64(wr.Failed) / float64(wr.Attempted)
		failed = failed || wr.Failed > 0
		out.Workloads = append(out.Workloads, wr)
	}

	printSummary(os.Stdout, out)
	if err := writeJSON(filepath.Join(outDir, "result.json"), out); err != nil {
		return err
	}
	trace, err := marshalChrome(events)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace.json"), trace, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", filepath.Join(outDir, "result.json"), filepath.Join(outDir, "trace.json"))
	if failed {
		return errors.New("some repetitions failed their output checks; see result.json")
	}
	return nil
}

func printSummary(w io.Writer, r resultFile) {
	h := r.Host
	fmt.Fprintf(w, "\nfsoibench  host %s (%s)  nproc %d  GOMAXPROCS %d  %s %s  commit %s  seed %d  runs %d x %gs\n",
		h.Hostname, h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.OSArch, h.Commit, r.Flags.Seed, r.Flags.Runs, r.Flags.Seconds)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n%s  fail_frac %g (%d/%d)  canonical_sha256 %s\n", wr.Name, wr.FailFrac, wr.Failed, wr.Attempted, wr.SHA)
		for _, row := range wr.EndToEnd {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s runs [%.6g, %.6g] spread %.2f%%  repetitions [%.6g, %.6g]  bound %g%%\n",
				row.Name, row.Median, row.Unit, row.Q1, row.Q3, 100*spread(row.Values), row.RepMin, row.RepMax, 100*row.Bound)
		}
		for _, row := range wr.PerLayer {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", row.Name, row.Value, row.Unit)
		}
		for _, f := range wr.Failures {
			fmt.Fprintln(w, "  FAILED:", f)
		}
	}
}
