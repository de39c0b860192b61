package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"fsoi/internal/core"
	"fsoi/internal/exp"
	"fsoi/internal/obs"
	"fsoi/internal/optics"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// outcome is what one repetition produced: the text whose SHA-256
// identifies the output, the model's own success flag, the work done (the
// numerator of work_per_s) and the exact per-layer counts.
type outcome struct {
	text     string
	failure  string // "" when the output passed the workload's checks
	work     float64
	counters map[string]float64
}

// built is one constructed set of inputs. run is the measured part of a
// repetition: run, collect, export. release, when not nil, frees what
// construction started (the windowed engine's workers, which only Run
// stops) if the inputs are dropped without running.
type built struct {
	run     func(tr *tracer) outcome
	release func()
}

// setupFunc builds a workload's inputs from a model seed.
type setupFunc func(seed uint64, tr *tracer) (built, error)

// workloadDef is one named set of inputs. setup is what setup_s times;
// host_s is setup plus the run it returns. threads is how many host
// threads the model keeps busy, the denominator of shard.worker_idle_frac.
type workloadDef struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	threads int
	setup   setupFunc
}

// paperFig6Geomean is the paper's 16-node FSOI-over-mesh geometric-mean
// speedup (Figure 6), the reference for exp.fig6_paper_err.
const paperFig6Geomean = 1.36

// The sizes below were cut from the issue's (3-8 s per repetition) until a
// repetition takes under a second on the 2-CPU reference host, so a 15 s
// run (the driver's time cap leaves ~20 s) visits each of its three
// inputs six times or more. Step counts are set directly because
// workload.Suite floors Steps at 64, which is already 4 s on the
// 64-router mesh.
var workloads = []workloadDef{
	{
		Name:    "fsoi64-mp3d",
		Why:     "64-node FSOI, mp3d, serial engine: traffic-bound hot path shared by core, sim, coherence, cpu and workload; mesh, shard and obs idle.",
		threads: 1,
		setup:   simSetup(64, system.NetFSOI, "mp3d", 200, nil, false),
	},
	{
		Name:    "mesh64-mp3d",
		Why:     "Same app on the 8x8 4-stage-router mesh: mesh is ~90% of CPU here and 0 on every fsoi row, and it dominates fig6/fig7/fig11 wall-clock.",
		threads: 1,
		setup:   simSetup(64, system.NetMesh, "mp3d", 8, nil, false),
	},
	{
		Name:    "fsoi256-serial",
		Why:     "256-node FSOI, jacobi, serial engine: tick-bound large-N regime (the 1024-node scale run's), where idle node ticks, not events, set the time.",
		threads: 1,
		setup:   simSetup(256, system.NetFSOI, "jacobi", 5, nil, false),
	},
	{
		Name:    "fsoi256-par2",
		Why:     "Same model on shard.Windows with 2 shards and 2 workers: only here do the window barrier, handoff commit and parallel.Pool work; host_s against fsoi256-serial is the -par 2 ratio.",
		threads: 2,
		setup: simSetup(256, system.NetFSOI, "jacobi", 5, func(c *system.Config) {
			c.ParWorkers, c.Shards = 2, 2
		}, false),
	},
	{
		Name:    "fsoi64-observed",
		Why:     "fsoi64-mp3d model with Observe, Detect and a 2 dB fault margin penalty, then JSONL, Chrome-trace and registry export: the recording/export path a nil-check-only gain could cost.",
		threads: 1,
		setup: simSetup(64, system.NetFSOI, "mp3d", 80, func(c *system.Config) {
			c.Observe, c.Detect = true, true
			c.Fault.MarginPenaltyDB = 2
		}, true),
	},
	{
		Name:    "grid-fig6-j2",
		Why:     "exp fig6 at bench scale on 2 workers: 20 short 16-node sims over mesh/FSOI/L0/Lr1/Lr2, so construction, parallel.Map and two live heaps matter as in `experiments`.",
		threads: 2,
		setup:   gridSetup(0.003),
	},
	{
		Name:    "analytic-mc",
		Why:     "exp fig3 Monte Carlo over analytic and sim.RNG only: engine, networks and coherence are bypassed, so a change to them must leave this row unmoved.",
		threads: 1,
		setup:   analyticSetup(40000),
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// simSetup returns the set-up of a whole-system simulation: one
// application of `steps` memory operations per thread on `nodes` nodes.
// With export, the repetition also renders the recorded lifecycle events.
func simSetup(nodes int, net system.NetworkKind, appName string, steps int, mutate func(*system.Config), export bool) setupFunc {
	return func(seed uint64, tr *tracer) (built, error) {
		var (
			app   workload.App
			found bool
			cfg   system.Config
			sys   *system.System
		)
		tr.span("workload.ByName", func() { app, found = workload.ByName(appName, 1) })
		if !found {
			return built{}, fmt.Errorf("unknown application %q", appName)
		}
		app.Steps = steps
		tr.span("system.Default", func() {
			cfg = system.Default(nodes, net)
			cfg.Seed = seed
			if mutate != nil {
				mutate(&cfg)
			}
		})
		tr.span("system.New", func() { sys = system.New(cfg) })
		var release func()
		if w := sys.WindowEngine(); w != nil {
			release = w.Close
		}
		return built{release: release, run: func(tr *tracer) outcome {
			var m system.Metrics
			start := time.Now()
			tr.span("System.Run", func() { m = sys.Run(app) })
			runNS := float64(time.Since(start))
			var out outcome
			tr.span("Metrics.Canonical", func() { out.text = m.Canonical() })
			if !m.Finished {
				out.failure = fmt.Sprintf("Finished == false at cycle %d", m.Cycles)
			}
			if export {
				var err error
				tr.span("obs.WriteJSONL", func() { err = obs.WriteJSONL(io.Discard, m.Obs) })
				if err == nil {
					tr.span("obs.WriteChromeTrace", func() { err = obs.WriteChromeTrace(io.Discard, m.Obs) })
				}
				if err != nil {
					out.failure = "export: " + err.Error()
				}
				tr.span("obs.Registry.String", func() { sink += float64(len(m.ObsRegistry.String())) })
			}
			tr.span("counters", func() { out.counters = simCounters(sys, cfg, m, runNS) })
			out.work = out.counters["cpu.ops"]
			return out
		}}, nil
	}
}

// simCounters reads the exact per-layer counts of a finished run through
// the system's public accessors.
func simCounters(sys *system.System, cfg system.Config, m system.Metrics, runNS float64) map[string]float64 {
	c := map[string]float64{
		"system.sim_cycles":       float64(m.Cycles),
		"sim.events_fired":        float64(sys.Engine().EventsFired()),
		"sim.max_queue_depth":     float64(sys.Engine().MaxQueueDepth()),
		"noc.packets_meta":        float64(m.MetaPackets),
		"noc.packets_data":        float64(m.DataPackets),
		"noc.latency_mean_cycles": m.Latency.MeanTotal(),
		"coherence.nacks":         float64(m.Nacks),
		"coherence.elided_acks":   float64(m.ElidedAcks),
		"obs.events":              float64(m.Obs.Len()),
		"obs.lost":                float64(m.Obs.Lost()),
	}
	if w := sys.WindowEngine(); w != nil {
		c["shard.windows"] = float64(w.WindowCount())
		c["shard.handoffs"] = float64(w.Handoffs())
		c["shard.tight_handoffs"] = float64(w.TightHandoffs())
	}
	if st := m.FSOI; st != nil {
		attempts := st.Attempts[core.LaneMeta] + st.Attempts[core.LaneData]
		c["core.attempts"] = float64(attempts)
		c["core.collided"] = float64(st.Collided[core.LaneMeta] + st.Collided[core.LaneData])
		if attempts > 0 {
			c["core.delivered_per_attempt"] = float64(st.Delivered[core.LaneMeta]+st.Delivered[core.LaneData]) / float64(attempts)
		}
		c["core.confirm_signals"] = float64(st.ConfirmSignals)
		c["core.bit_errors"] = float64(st.BitErrors)
		c["core.timeout_retransmits"] = float64(st.TimeoutRetransmits)
	}
	if cfg.Net == system.NetMesh {
		// The mesh's flit-hop counter has no accessor on System; it is
		// recovered exactly by inverting power.MeshEnergy, whose network
		// term is (router + link energy) x flit hops plus router leakage.
		p := cfg.Power
		static := p.RouterStaticPower.Scale(float64(cfg.Nodes)).Times(optics.CycleSeconds(m.Cycles, p.CoreGHz*1e9))
		perHop := p.RouterEnergyPerFlitHop + p.LinkEnergyPerFlitHop
		c["mesh.flit_hops"] = math.Round(float64(m.Energy.Network-static) / float64(perHop))
	}
	for i := 0; i < cfg.Nodes; i++ {
		l1, dir, cs := sys.L1(i).Stats(), sys.Directory(i).Stats(), sys.CoreStats(i)
		c["coherence.l1_hits"] += float64(l1.Hits)
		c["coherence.l1_misses"] += float64(l1.Misses)
		c["coherence.dir_requests"] += float64(dir.Requests)
		c["coherence.inv_sent"] += float64(dir.InvSent)
		c["memory.reads"] += float64(dir.MemReads)
		c["cpu.ops"] += float64(cs.Ops)
		c["cpu.stall_load_cycles"] += float64(cs.StallLoad)
		c["cpu.stall_sync_cycles"] += float64(cs.StallSync)
	}
	if m.Detection != nil {
		c["obs.flagged_links"] = float64(len(m.Detection.FlaggedLinks()))
	}
	if ev := c["sim.events_fired"]; ev > 0 {
		c["system.ns_per_event"] = runNS / ev
	}
	if m.Cycles > 0 {
		c["system.ns_per_node_cycle"] = runNS / (float64(m.Cycles) * float64(cfg.Nodes))
	}
	if pk := float64(m.MetaPackets + m.DataPackets); pk > 0 {
		c["system.ns_per_packet"] = runNS / pk
	}
	return c
}

// expSetup looks an experiment up and sizes it; seed, workers and trials
// are the only knobs the two experiment workloads differ in.
func expSetup(id string, seed uint64, tr *tracer, size func(*exp.Options)) (exp.Runner, exp.Options, error) {
	var (
		runner exp.Runner
		found  bool
		o      exp.Options
	)
	tr.span("exp.Lookup", func() { runner, found = exp.Lookup(id) })
	if !found {
		return nil, o, fmt.Errorf("unknown experiment %q", id)
	}
	tr.span("exp.BenchOptions", func() {
		o = exp.BenchOptions()
		o.Seed = seed
		size(&o)
	})
	return runner, o, nil
}

// gridSetup is the Figure 6 grid at the given workload scale on two workers.
func gridSetup(scale float64) setupFunc {
	return func(seed uint64, tr *tracer) (built, error) {
		runner, o, err := expSetup("fig6", seed, tr, func(o *exp.Options) {
			o.Scale = scale
			o.Workers = 2
		})
		if err != nil {
			return built{}, err
		}
		const networks = 5 // mesh, FSOI, L0, Lr1, Lr2
		return built{run: func(tr *tracer) outcome {
			var res exp.Result
			tr.span("exp.Fig6", func() { res = runner(o) })
			g := res.Values["geomean_fsoi"]
			out := outcome{
				text: res.Text,
				work: float64(len(o.Apps) * networks),
				counters: map[string]float64{
					"exp.fig6_geomean_fsoi": g,
					"exp.fig6_paper_err":    math.Abs(g-paperFig6Geomean) / paperFig6Geomean,
				},
			}
			if !(g > 1) {
				out.failure = fmt.Sprintf("geomean_fsoi = %v, want > 1", g)
			}
			return out
		}}, nil
	}
}

// analyticSetup is the Figure 3 Monte Carlo with the given trials (slots)
// per transmission probability, on one worker. The issue named fig4; its
// backoff episodes are heavy-tailed, so time and allocation of one run
// moved by +-20% with the seed alone, which no bound could sit on. fig3
// draws a fixed amount of work per trial; analytic.backoff_ns_per_trial
// still times the fig4 kernel.
func analyticSetup(trials int) setupFunc {
	return func(seed uint64, tr *tracer) (built, error) {
		runner, o, err := expSetup("fig3", seed, tr, func(o *exp.Options) {
			o.Trials = trials
			o.Workers = 1
		})
		if err != nil {
			return built{}, err
		}
		const probabilities = 11 // Monte Carlo points on the R=2 curve
		return built{run: func(tr *tracer) outcome {
			var res exp.Result
			tr.span("exp.Fig3", func() { res = runner(o) })
			out := outcome{text: res.Text, work: float64(o.Trials * probabilities), counters: map[string]float64{}}
			if p := res.Values["p0.10_r2"]; !(p > 0 && p < 1) {
				out.failure = fmt.Sprintf("p0.10_r2 = %v, want a probability", p)
			}
			return out
		}}, nil
	}
}
