// Command fsoisim runs one application on one interconnect configuration
// and prints the full metric set: run time, packet-latency breakdown,
// collision statistics, traffic, and energy.
//
//	fsoisim -app jacobi -net fsoi -nodes 16
//	fsoisim -app mp3d -net mesh -nodes 64 -scale 0.25
//	fsoisim -app raytrace -net fsoi -no-opt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"fsoi/internal/config"
	"fsoi/internal/core"
	"fsoi/internal/obs"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// adjust edits the configuration just before the run. Only the tests set
// it: they cut a run off after a few thousand cycles, not MaxCycles' 40
// million, to reach the unfinished-run exit.
var adjust = func(*system.Config) {}

// run is the whole command behind a testable seam: it returns the exit
// code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsoisim", flag.ContinueOnError)
	// A bad flag is one fail line like any other bad input; only -h
	// prints the usage.
	fs.SetOutput(io.Discard)
	appName := fs.String("app", "jacobi", "application (see -listapps)")
	netName := fs.String("net", "fsoi", "interconnect: "+strings.Join(system.Networks(), " | "))
	nodes := fs.Int("nodes", 16, "node count (a perfect square)")
	scale := fs.Float64("scale", 0.5, "workload scale factor")
	seed := fs.Uint64("seed", 1, "random seed")
	memGBps := fs.Float64("membw", 8.8, "total memory bandwidth, GB/s")
	noOpt := fs.Bool("no-opt", false, "disable all §5 FSOI optimizations")
	trace := fs.Int("trace", 0, "dump the last N terminated packets")
	traceFile := fs.String("tracefile", "", "record packet-lifecycle events and write them as JSON Lines (read with cmd/fsoitrace)")
	chromeTrace := fs.String("chrometrace", "", "record packet-lifecycle events and write a Chrome trace-event file (chrome://tracing, Perfetto)")
	profilePath := fs.String("profile", "", "write a host CPU profile (pprof) of the run and print engine counters")
	detect := fs.Bool("detect", false, "run the windowed contention detector and print its report (implies observation)")
	canonicalPath := fs.String("canonical", "", "write the canonical metric listing to a file (- for stdout), the byte-comparison surface of the equivalence CI")
	configPath := fs.String("config", "", "JSON spec read before the flags (see internal/config); every flag given beside it overrides the spec's field")
	listApps := fs.Bool("listapps", false, "list applications and exit")
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "fsoisim:", err)
		return code
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		return fail(2, err)
	}

	if *listApps {
		for _, a := range workload.Suite(1) {
			fmt.Fprintln(stdout, a.Name)
		}
		return 0
	}

	// One input path: the spec file (if any) first, then every flag the
	// user actually set on top of it. Flags left alone keep the spec's
	// value, and a spec's zero fields are the flags' defaults.
	var spec config.Spec
	if *configPath != "" {
		var err error
		if spec, err = config.Load(*configPath); err != nil {
			return fail(2, err)
		}
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "app":
			spec.App = *appName
		case "net":
			spec.Network = *netName
		case "nodes":
			spec.Nodes = *nodes
		case "scale":
			spec.Scale = *scale
		case "seed":
			spec.Seed = *seed
		case "membw":
			spec.MemoryGBps = *memGBps
		case "no-opt":
			if *noOpt {
				spec.Optimizations = &config.OptSpec{}
			}
		case "trace":
			spec.TracePackets = *trace
		case "detect":
			if *detect {
				spec.Detect = true
			}
		}
	})
	cfg, err := spec.Build()
	if err != nil {
		return fail(2, err)
	}
	name, sc := spec.AppAndScale()
	app, ok := workload.ByName(name, sc)
	if !ok {
		return fail(2, fmt.Errorf("unknown app %q (use -listapps)", name))
	}
	if *traceFile != "" || *chromeTrace != "" {
		cfg.Observe = true // recording is an output choice, so it has no spec field
	}
	adjust(&cfg)

	s := system.New(cfg)
	if *profilePath != "" {
		f, err := os.Create(*profilePath)
		if err != nil {
			return fail(2, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(2, err)
		}
		defer pprof.StopCPUProfile()
	}
	m := s.Run(app)

	fmt.Fprintf(stdout, "app=%s net=%s nodes=%d scale=%.2f\n", app.Name, m.Net, m.Nodes, sc)
	fmt.Fprintf(stdout, "run time            %d cycles (finished=%v)\n", m.Cycles, m.Finished)
	q, sched, nw, res := m.Latency.Breakdown()
	fmt.Fprintf(stdout, "packet latency      %.2f cycles = queuing %.2f + scheduling %.2f + network %.2f + resolution %.2f\n",
		m.Latency.MeanTotal(), q, sched, nw, res)
	fmt.Fprintf(stdout, "traffic             %d meta + %d data packets, %d invalidations (%d acks elided), %d NACKs\n",
		m.MetaPackets, m.DataPackets, m.Invalidations, m.ElidedAcks, m.Nacks)
	if m.FSOI != nil {
		fmt.Fprintf(stdout, "meta lane           p=%.4f collision rate=%.4f\n",
			m.FSOI.TransmissionProbability(core.LaneMeta), m.FSOI.CollisionRate(core.LaneMeta))
		fmt.Fprintf(stdout, "data lane           p=%.4f collision rate=%.4f\n",
			m.FSOI.TransmissionProbability(core.LaneData), m.FSOI.CollisionRate(core.LaneData))
		fmt.Fprintf(stdout, "confirmation lane   %d packet confirms + %d boolean pushes\n",
			m.FSOI.ConfirmSignals, m.FSOI.ConfirmBits)
		fmt.Fprintf(stdout, "hints               %d issued, %d correct, %d wrong-winner\n",
			m.FSOI.HintsIssued, m.FSOI.HintsCorrect, m.FSOI.HintsWrong)
	}
	if m.FaultCounters != nil {
		fmt.Fprintf(stdout, "faults              %d bit errors (%d header, %d CRC), %d confirm drops -> %d timeouts, %d VCSELs failed on %d nodes\n",
			m.FaultCounters.Get("bit_errors"), m.FaultCounters.Get("header_corruptions"),
			m.FaultCounters.Get("payload_crc_errors"), m.FaultCounters.Get("confirm_drops"),
			m.FaultCounters.Get("timeout_retransmits"), m.FaultCounters.Get("vcsels_failed"),
			m.FaultCounters.Get("nodes_degraded"))
	}
	fmt.Fprintf(stdout, "energy              %.4f J (network %.4f, core+cache %.4f, leakage %.4f), avg power %.1f W\n",
		m.Energy.Total(), m.Energy.Network, m.Energy.CoreCache, m.Energy.Leakage, m.AvgPowerW)
	if bucket, frac := m.ReplyHist.ModeFraction(); m.ReplyHist.Total() > 0 {
		fmt.Fprintf(stdout, "reply latency       mean %.1f cycles, modal bin %d-%d holds %.0f%%\n",
			m.ReplyHist.Mean(), bucket*5, bucket*5+4, frac*100)
	}
	if m.AdversaryNodes > 0 {
		fmt.Fprintf(stdout, "adversaries         %d hostile nodes (%d spoofed headers, %d starved confirms), honest cores finished at cycle %d\n",
			m.AdversaryNodes, m.FSOI.SpoofedHeaders, m.FSOI.StarvedConfirms, m.HonestFinish)
	}
	if cfg.TracePackets > 0 {
		fmt.Fprintf(stdout, "\nlast %d packets:\n%s", cfg.TracePackets, s.Trace().String())
	}
	if rec := s.Obs(); rec != nil {
		fmt.Fprintf(stdout, "\nlifecycle events    %d recorded", rec.Len())
		if rec.Lost() > 0 {
			fmt.Fprintf(stdout, " (%d lost past the cap)", rec.Lost())
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.ObsRegistry().String())
		if err := writeTrace(stdout, *traceFile, rec, obs.WriteJSONL); err != nil {
			return fail(1, err)
		}
		if err := writeTrace(stdout, *chromeTrace, rec, obs.WriteChromeTrace); err != nil {
			return fail(1, err)
		}
	}
	if m.Detection != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, m.Detection.Table())
	}
	if *profilePath != "" {
		e := s.Engine()
		fmt.Fprintf(stdout, "\nengine              %d events fired, event-queue high-water mark %d\n",
			e.EventsFired(), e.MaxQueueDepth())
		fmt.Fprintf(stdout, "cpu profile         written to %s\n", *profilePath)
	}
	if *canonicalPath != "" {
		text := m.Canonical()
		if *canonicalPath == "-" {
			fmt.Fprint(stdout, text)
		} else if err := os.WriteFile(*canonicalPath, []byte(text), 0o644); err != nil {
			return fail(1, err)
		} else {
			fmt.Fprintf(stdout, "canonical metrics   written to %s\n", *canonicalPath)
		}
	}
	// A run cut off at MaxCycles measured nothing: every output above is
	// written for the diagnosis, and the exit status says so.
	if !m.Finished {
		fmt.Fprintf(stderr, "fsoisim: run did not finish: stopped at cycle %d of MaxCycles %d; its metrics are not a result\n", m.Cycles, cfg.MaxCycles)
		return 1
	}
	return 0
}

// writeTrace exports a recording through the given encoder, or does
// nothing when no path was requested.
func writeTrace(stdout io.Writer, path string, rec *obs.Recorder, encode func(io.Writer, *obs.Recorder) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = encode(f, rec)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(stdout, "trace               written to %s\n", path)
	}
	return err
}
