// Command experiments regenerates the paper's tables and figures and runs
// the sweeps beyond them: every entry of exp.Registry.
//
// Usage:
//
//	experiments -run fig6           # one experiment
//	experiments -run all            # everything, paper order
//	experiments -scale 0.25 -run fig7
//	experiments -run table1 -distance 0.03 -rate 50e9
//	experiments -run faults -penalties 0,1.5,3 -droop 0.03 -cooling air
//	experiments -run resilience -roles jammer -intensities 0.9 -nodes 64
//	experiments -list
//
// Scale multiplies workload length: 1.0 is the full-size experiment,
// smaller values trade fidelity for time (0.5 is the calibrated default;
// see EXPERIMENTS.md for recorded paper-vs-measured values).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fsoi/internal/config"
	"fsoi/internal/exp"
	"fsoi/internal/obs"
	"fsoi/internal/parallel"
	"fsoi/internal/workload"
)

// fileSink streams every simulated run's lifecycle recording to one
// JSONL file. Runs are separated by {"run":...} header lines; the exp
// package feeds sinks strictly in job order after each grid's barrier,
// so the file bytes are identical at every -j setting. It writes to the
// file unbuffered: obs.WriteJSONL already writes whole blocks of its own.
type fileSink struct {
	f   *os.File
	err error
}

func newFileSink(path string) (*fileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &fileSink{f: f}, nil
}

func (s *fileSink) WriteRun(label string, rec *obs.Recorder) {
	if s.err != nil {
		return
	}
	header := append(strconv.AppendQuote([]byte(`{"run":`), label), "}\n"...)
	if _, s.err = s.f.Write(header); s.err == nil {
		s.err = obs.WriteJSONL(s.f, rec)
	}
}

func (s *fileSink) Close() error {
	if err := s.f.Close(); s.err == nil {
		s.err = err
	}
	return s.err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind a testable seam: it returns the exit
// code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	inv, code := parse(args, stderr)
	if inv == nil {
		return code
	}
	return inv.execute(stdout, stderr)
}

// invocation is one parsed command line.
type invocation struct {
	list        bool
	ids         []string
	runners     []exp.Runner
	opts        exp.Options
	tracePath   string
	profilePath string
}

// parse turns the command line into an invocation, or reports why it
// cannot on stderr and returns nil with the exit code.
func parse(args []string, stderr io.Writer) (*invocation, int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	// A bad flag is one fail line like any other bad input; only -h
	// prints the usage.
	fs.SetOutput(io.Discard)

	// Experiments with inputs of their own register them first, while
	// every flag on fs is some experiment's: owner remembers whose.
	owner := map[string]string{}
	build := map[string]func() (exp.Runner, error){}
	for _, e := range exp.Registry {
		if e.Flags == nil {
			continue
		}
		build[e.ID] = e.Flags(fs)
		fs.VisitAll(func(f *flag.Flag) {
			if _, seen := owner[f.Name]; !seen {
				owner[f.Name] = e.ID
			}
		})
	}
	run := fs.String("run", "all", "comma-separated experiment ids ("+strings.Join(exp.IDs(), ", ")+") or 'all'")
	scale := fs.Float64("scale", 0.5, "workload scale factor (1.0 = full size)")
	seed := fs.Uint64("seed", 1, "random seed")
	trials := fs.Int("trials", 30000, "Monte Carlo trials")
	apps := fs.String("apps", "", "comma-separated app subset (default: all sixteen)")
	jobs := fs.Int("j", 1, "concurrent simulations (0 = one per CPU); output is identical at any setting")
	tracePath := fs.String("trace", "", "record every run's packet-lifecycle events into this JSONL file (read with cmd/fsoitrace)")
	profilePath := fs.String("profile", "", "write a host CPU profile (pprof) of the whole invocation")
	list := fs.Bool("list", false, "list experiment ids and exit")

	fail := func(format string, a ...any) (*invocation, int) {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", a...)
		return nil, 2
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return nil, 0
		}
		return fail("%v", err)
	}

	inv := &invocation{
		list:        *list,
		opts:        exp.Options{Scale: *scale, Seed: *seed, Trials: *trials, Workers: parallel.Workers(*jobs)},
		tracePath:   *tracePath,
		profilePath: *profilePath,
	}
	if *trials < 1 {
		return fail("-trials %d: a Monte Carlo estimate needs at least one trial", *trials)
	}
	if err := config.Check("seed", float64(*seed)); err != nil {
		return fail("-seed %d: %v", *seed, err)
	}
	if err := config.Check("scale", *scale); err != nil {
		return fail("-scale %v: %v", *scale, err)
	}
	if *jobs < 0 {
		return fail("-j %d: the worker count is 0 (one per CPU) or positive", *jobs)
	}
	if *apps != "" {
		inv.opts.Apps = strings.Split(*apps, ",")
		for _, name := range inv.opts.Apps {
			if _, ok := workload.ByName(name, 1); !ok {
				var valid []string
				for _, a := range workload.Suite(1) {
					valid = append(valid, a.Name)
				}
				return fail("unknown app %q in -apps (valid: %s)", name, strings.Join(valid, ", "))
			}
		}
	}
	inv.ids = exp.IDs()
	if *run != "all" {
		inv.ids = strings.Split(*run, ",")
	}
	selected := map[string]bool{}
	for _, id := range inv.ids {
		selected[id] = true
	}
	var stray *flag.Flag
	fs.Visit(func(f *flag.Flag) {
		if id, ok := owner[f.Name]; ok && !selected[id] && stray == nil {
			stray = f
		}
	})
	if stray != nil {
		return fail("-%s is an input of %q, which -run %s does not select", stray.Name, owner[stray.Name], *run)
	}
	for _, id := range inv.ids {
		r, ok := exp.Lookup(id)
		if !ok {
			return fail("unknown experiment %q (use -list)", id)
		}
		if b := build[id]; b != nil {
			var err error
			if r, err = b(); err != nil {
				return fail("-run %s: %v", id, err)
			}
		}
		inv.runners = append(inv.runners, r)
	}
	return inv, 0
}

// execute runs the parsed invocation and returns the exit code.
func (inv *invocation) execute(stdout, stderr io.Writer) (code int) {
	if inv.list {
		for _, id := range exp.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	o := inv.opts
	if inv.tracePath != "" {
		sink, err := newFileSink(inv.tracePath)
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				code = 1
			}
		}()
		o.Trace = sink
	}
	if inv.profilePath != "" {
		f, err := os.Create(inv.profilePath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	for i, r := range inv.runners {
		start := time.Now()
		res := r(o)
		fmt.Fprintf(stdout, "==== %s — %s (%.1fs) ====\n", inv.ids[i], res.Title, time.Since(start).Seconds())
		fmt.Fprintln(stdout, res.Text)
		// A job that hit MaxCycles is an error, not a divisor: the table
		// above is printed for the diagnosis, then named as wrong.
		for _, job := range res.Unfinished {
			fmt.Fprintf(stderr, "experiments: %s: %s did not finish (hit MaxCycles); figures derived from it are wrong\n", inv.ids[i], job)
			code = 1
		}
	}
	return code
}
