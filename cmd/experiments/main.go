// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run fig6           # one experiment
//	experiments -run all            # everything, paper order
//	experiments -scale 0.25 -run fig7
//	experiments -list
//
// Scale multiplies workload length: 1.0 is the full-size experiment,
// smaller values trade fidelity for time (0.5 is the calibrated default;
// see EXPERIMENTS.md for recorded paper-vs-measured values).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"fsoi/internal/exp"
	"fsoi/internal/obs"
	"fsoi/internal/parallel"
)

// fileSink streams every simulated run's lifecycle recording to one
// JSONL file. Runs are separated by {"run":...} header lines; the exp
// package feeds sinks strictly in job order after each grid's barrier,
// so the file bytes are identical at every -j setting.
type fileSink struct {
	w   *bufio.Writer
	f   *os.File
	err error
}

func newFileSink(path string) (*fileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &fileSink{w: bufio.NewWriter(f), f: f}, nil
}

func (s *fileSink) WriteRun(label string, rec *obs.Recorder) {
	if s.err != nil {
		return
	}
	if _, err := fmt.Fprintf(s.w, "{\"run\":%q}\n", label); err != nil {
		s.err = err
		return
	}
	s.err = obs.WriteJSONL(s.w, rec)
}

func (s *fileSink) Close() error {
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	if err := s.f.Close(); s.err == nil {
		s.err = err
	}
	return s.err
}

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids ("+strings.Join(exp.IDs(), ", ")+") or 'all'")
	scale := flag.Float64("scale", 0.5, "workload scale factor (1.0 = full size)")
	seed := flag.Uint64("seed", 1, "random seed")
	trials := flag.Int("trials", 30000, "Monte Carlo trials")
	apps := flag.String("apps", "", "comma-separated app subset (default: all sixteen)")
	jobs := flag.Int("j", 1, "concurrent simulations (0 = one per CPU); output is identical at any setting")
	shards := flag.Int("shards", 0, "shard count for the sharded-engine grids (frontier 256/1024 nodes; 0 = 8); output is identical at any setting")
	tracePath := flag.String("trace", "", "record every run's packet-lifecycle events into this JSONL file (read with cmd/fsoitrace)")
	profilePath := flag.String("profile", "", "write a host CPU profile (pprof) of the whole invocation")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}

	o := exp.Options{Scale: *scale, Seed: *seed, Trials: *trials, Workers: parallel.Workers(*jobs), Shards: *shards}
	if *apps != "" {
		o.Apps = strings.Split(*apps, ",")
	}
	if *tracePath != "" {
		sink, err := newFileSink(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}()
		o.Trace = sink
	}
	if *profilePath != "" {
		f, err := os.Create(*profilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	var runners []exp.Runner
	var ids []string
	if *run == "all" {
		for _, e := range exp.Registry {
			runners = append(runners, e.Runner)
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			r, ok := exp.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
			ids = append(ids, id)
		}
	}

	for i, r := range runners {
		start := time.Now()
		res := r(o)
		fmt.Printf("==== %s — %s (%.1fs) ====\n", ids[i], res.Title, time.Since(start).Seconds())
		fmt.Println(res.Text)
	}
}
