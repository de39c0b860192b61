// Command bench is fsoibench, the repository's performance benchmark:
// seven named workloads over the simulator's public API, end-to-end
// host/simulation metrics from untraced repetitions, and per-layer
// metrics from a traced repetition plus a set of layer drivers. README.md
// in this directory says why each workload and metric exists.
//
// One measured run, the form BENCHMARK.json's command takes:
//
//	go run ./bench -workload fsoi64-mp3d -seed 1 -seconds 15 -trace 0
//
// prints every metric by name and unit and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
//
// Without -trace it is the suite: every workload (or the -workload
// list), each run in a fresh child process, one at a time, -runs
// untraced runs on seeds seed, seed+1, ... and one traced run, written
// to bench/out/result.json and bench/out/trace.json.
//
//	go run ./bench -compare A.json B.json
//
// compares two result files row by row against the bounds, and
// -manifest prints BENCHMARK.json as the code defines it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// maxThreads caps the Go scheduler: no workload keeps more than two host
// threads busy, and a fixed cap keeps numbers comparable across hosts.
const maxThreads = 2

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload name (a comma-separated list, or empty for all, in suite mode)")
		seed         = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds      = flag.Float64("seconds", runSeconds, "measured span of one run")
		trace        = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics; unset: run the suite")
		detail       = flag.String("detail", "", "also write the run's full detail (repetitions, spans) to this file")
		runs         = flag.Int("runs", 1, "suite mode: untraced runs per workload, on consecutive seeds")
		outDir       = flag.String("out", "bench/out", "suite mode: directory for result.json and trace.json")
		compare      = flag.Bool("compare", false, "compare two result.json files given as arguments")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json as the code defines it")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxThreads)

	singleRun := false
	flag.Visit(func(f *flag.Flag) { singleRun = singleRun || f.Name == "trace" })
	var err error
	switch {
	case *manifest:
		var data []byte
		if data, err = manifestJSON(); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case singleRun:
		err = runOne(*workloadFlag, *seed, *seconds, *trace == 1, *detail)
	default:
		err = runSuite(suiteFlags{Workload: *workloadFlag, Seed: *seed, Seconds: *seconds, Runs: *runs}, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one entry of the last line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the run's result, printed as the final line of standard output.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne measures one workload in this process and prints the result. A
// failed output check is reported in the line, not as an exit code: the
// run itself completed.
func runOne(name string, seed uint64, seconds float64, traced bool, detailPath string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if !(seconds > 0) {
		return fmt.Errorf("-seconds must be positive")
	}
	var (
		res  *runResult
		defs = endToEnd
		err  error
	)
	if traced {
		defs = perLayer()
		if res, err = measurePerLayer(w, seed, seconds); err != nil {
			return err
		}
	} else {
		res = measureEndToEnd(w, seed, seconds)
	}
	if detailPath != "" {
		if err := writeJSON(detailPath, res); err != nil {
			return err
		}
	}

	fmt.Printf("workload %s seed %d seconds %g trace %t\n", w.Name, seed, seconds, traced)
	line := lastLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("%-34s %16.6g %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	fmt.Printf("%-34s %16.6g (nominal / measured clock; times above are wall time x this)\n", "clock_scale", res.Scale)
	fmt.Printf("%-34s %16d\n", "timed_repetitions", len(res.Reps))
	fmt.Printf("%-34s %16.6g\n", "fail_frac", float64(res.Failed)/float64(res.Attempted))
	fmt.Printf("%-34s %s\n", "canonical_sha256", res.SHA)
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
