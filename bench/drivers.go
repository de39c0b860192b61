package main

import (
	"io"
	"runtime"
	"time"

	"fsoi/internal/analytic"
	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/core"
	"fsoi/internal/corona"
	"fsoi/internal/fault"
	"fsoi/internal/memory"
	"fsoi/internal/mesh"
	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/optics"
	"fsoi/internal/parallel"
	"fsoi/internal/sim"
	"fsoi/internal/sim/shard"
	"fsoi/internal/stats"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// A layer driver exercises one layer alone, built from its public
// constructors with no-op or loopback neighbours, and reports host time
// per call into it. Drivers do not depend on the workload or the seed:
// they say how fast a layer is, the workloads say how much it matters.
type driverDef struct {
	metricDef
	run func(budget time.Duration) float64
}

func ns(name string, run func(time.Duration) float64) driverDef {
	return driverDef{metricDef{Name: name, Unit: "ns", Better: "lower"}, run}
}

var drivers = []driverDef{
	ns("sim.schedule_ns", func(b time.Duration) float64 { return perOp(b, scheduleLoop()) }),
	ns("sim.churn_ns", driveChurn),
	{metricDef{Name: "sim.allocs_per_op", Unit: "count", Better: "lower"}, driveScheduleAllocs},
	ns("shard.exact_step_ns", driveExactStep),
	ns("shard.window_ns_w1", func(b time.Duration) float64 { return driveWindow(b, 1) }),
	ns("shard.window_ns_w2", func(b time.Duration) float64 { return driveWindow(b, 2) }),
	ns("parallel.pool_run_ns", drivePoolRun),
	ns("parallel.map_ns_per_job", driveMap),
	ns("core.packet_ns", func(b time.Duration) float64 { return drivePackets(b, 64, buildFSOI(64)) }),
	ns("core.idle_node_cycle_ns", func(b time.Duration) float64 { return driveIdle(b, 256, buildFSOI(256)) }),
	ns("mesh.packet_ns", func(b time.Duration) float64 { return drivePackets(b, 64, buildMesh) }),
	ns("mesh.idle_router_cycle_ns", func(b time.Duration) float64 { return driveIdle(b, 64, buildMesh) }),
	ns("corona.packet_ns", func(b time.Duration) float64 { return drivePackets(b, 64, buildCorona) }),
	ns("coherence.miss_ns", driveMiss),
	ns("cache.lookup_ns", driveCacheLookup),
	ns("cache.install_ns", driveCacheInstall),
	ns("workload.next_ns", driveStream),
	ns("memory.handle_ns", driveMemory),
	ns("obs.emit_ns", driveEmit),
	ns("obs.observe_ns", driveObserve),
	ns("obs.jsonl_ns_per_event", func(b time.Duration) float64 {
		return driveEvents(b, func(r *obs.Recorder) { must(obs.WriteJSONL(io.Discard, r)) })
	}),
	ns("obs.chrome_ns_per_event", func(b time.Duration) float64 {
		return driveEvents(b, func(r *obs.Recorder) { must(obs.WriteChromeTrace(io.Discard, r)) })
	}),
	ns("obs.detect_ns_per_event", func(b time.Duration) float64 {
		return driveEvents(b, func(r *obs.Recorder) { sink += float64(len(obs.Detect(r.Events(), obs.DetectorConfig{}).Flagged)) })
	}),
	ns("fault.ber_ns", driveBER),
	ns("analytic.mc_ns_per_trial", func(b time.Duration) float64 {
		rng := sim.NewRNG(1).NewStream("mc")
		c := analytic.CollisionParams{N: 16, R: 2, P: 0.1}
		return perOp(b, func(n int) float64 {
			p, _ := analytic.MonteCarloCollision(c, rng, n, 1)
			sink += p
			return float64(n)
		})
	}),
	ns("analytic.backoff_ns_per_trial", func(b time.Duration) float64 {
		rng := sim.NewRNG(1).NewStream("backoff")
		return perOp(b, func(n int) float64 {
			sink += analytic.PaperBackoff(0.01).MeanResolutionDelay(rng, n, 1)
			return float64(n)
		})
	}),
	ns("optics.budget_ns", func(b time.Duration) float64 {
		return perOp(b, func(n int) float64 {
			for i := 0; i < n; i++ {
				sink += optics.PaperLink().Budget().QFactor
			}
			return float64(n)
		})
	}),
	ns("stats.summary_add_ns", func(b time.Duration) float64 {
		var s stats.Summary
		return perOp(b, func(n int) float64 {
			for i := 0; i < n; i++ {
				s.Add(float64(i & 1023))
			}
			return float64(n)
		})
	}),
	ns("stats.hist_add_ns", func(b time.Duration) float64 {
		h := stats.NewHistogram(5, 60)
		return perOp(b, func(n int) float64 {
			for i := 0; i < n; i++ {
				h.Add(int64(i & 511))
			}
			return float64(n)
		})
	}),
	{metricDef{Name: "system.new_ms_n64", Unit: "ms", Better: "lower"}, func(b time.Duration) float64 { return driveNew(b, 64) }},
	{metricDef{Name: "system.new_ms_n256", Unit: "ms", Better: "lower"}, func(b time.Duration) float64 { return driveNew(b, 256) }},
	{metricDef{Name: "system.new_ms_n1024", Unit: "ms", Better: "lower"}, func(b time.Duration) float64 { return driveNew(b, 1024) }},
	{metricDef{Name: "system.canonical_us", Unit: "us", Better: "lower"}, driveCanonical},
}

// sink absorbs driver results so the calls cannot be optimised away.
var sink float64

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// perOp calls batch over and over for the budget, doubling its count until
// one batch takes an eighth of the budget, and returns the fewest
// nanoseconds per operation any full-length batch took; batch reports how
// many operations it performed. The fastest batch is the layer's
// undisturbed pace, as the fastest repetition is a workload's. The short
// early batches are warm-up only: a few operations on fresh state (an empty
// recorder, an engine that has not had to run yet) are not the layer's
// steady state, which later batches carry over from earlier ones.
func perOp(budget time.Duration, batch func(n int) float64) float64 {
	best := 0.0
	start := time.Now()
	for n := 1; ; {
		began := time.Now()
		ops := batch(n)
		d := time.Since(began)
		full := d >= budget/8 || n >= 1<<30
		if v := float64(d) / ops; full && ops > 0 && (best == 0 || v < best) {
			best = v
		}
		if full && time.Since(start) >= budget {
			return best
		}
		if !full {
			n *= 2
		}
	}
}

// scheduleLoop is the engine's event-queue hot path in isolation: a
// rolling window of timed callbacks, scheduled, fired and rescheduled as
// the FSOI slot machinery does.
func scheduleLoop() func(n int) float64 {
	e := sim.NewEngine()
	fn := func(sim.Cycle) {}
	for i := 0; i < 1024; i++ {
		e.After(sim.Cycle(i%17), fn)
	}
	e.Run(32)
	i := 0
	return func(n int) float64 {
		for k := 0; k < n; k++ {
			e.After(sim.Cycle(i%7+1), fn)
			if i%64 == 63 {
				e.Run(8)
			}
			i++
		}
		return float64(n)
	}
}

func driveScheduleAllocs(time.Duration) float64 {
	loop := scheduleLoop()
	loop(1 << 12) // reach the slab's steady state
	const ops = 1 << 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loop(ops)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / ops
}

// driveChurn keeps 4096 self-rescheduling events pending, the regime where
// heap arity and pointer chasing dominate; the cost is per fired event.
func driveChurn(b time.Duration) float64 {
	e := sim.NewEngine()
	var fn func(now sim.Cycle)
	fn = func(now sim.Cycle) { e.After(sim.Cycle(int(now)%31+1), fn) }
	for i := 0; i < 4096; i++ {
		e.After(sim.Cycle(i%63+1), fn)
	}
	e.Run(64)
	return perOp(b, func(n int) float64 {
		before := e.EventsFired()
		e.Run(sim.Cycle(n))
		return float64(e.EventsFired() - before)
	})
}

// driveExactStep steps the exact sharded engine over 8 shards holding 256
// no-op per-node tickers: the merge loop and tick sweep with no model work.
func driveExactStep(b time.Duration) float64 {
	e := shard.New(8)
	e.AssignNodes(256)
	for i := 0; i < 256; i++ {
		e.SetShard(e.NodeShard(i))
		e.Register(sim.TickFunc(func(sim.Cycle) {}))
	}
	e.SetShard(0)
	return perOp(b, func(n int) float64 { return float64(e.Run(sim.Cycle(n))) })
}

// driveWindow runs empty 2-shard windows: the pure barrier (pool dispatch,
// join, commit) the windowed engine pays every lookahead.
func driveWindow(b time.Duration, workers int) float64 {
	w := shard.NewWindows(2, workers)
	defer w.Close()
	w.AssignNodes(2)
	w.SetLookahead(2)
	return perOp(b, func(n int) float64 {
		before := w.WindowCount()
		w.Run(sim.Cycle(2 * n))
		return float64(w.WindowCount() - before)
	})
}

func drivePoolRun(b time.Duration) float64 {
	p := parallel.NewPool(2)
	defer p.Close()
	return perOp(b, func(n int) float64 {
		for i := 0; i < n; i++ {
			p.Run(2, func(int) {})
		}
		return float64(n)
	})
}

func driveMap(b time.Duration) float64 {
	const jobs = 64
	return perOp(b, func(n int) float64 {
		for i := 0; i < n; i++ {
			sink += float64(len(parallel.Map(jobs, 2, func(j int) int { return j })))
		}
		return float64(n * jobs)
	})
}

// netBuilder constructs a network over the engine and registers its
// per-cycle work the way system.New does for that network.
type netBuilder func(e *sim.Engine) noc.Network

func buildFSOI(nodes int) netBuilder {
	return func(e *sim.Engine) noc.Network {
		n := core.New(core.PaperConfig(nodes), e, sim.NewRNG(1))
		for i := 0; i < nodes; i++ {
			id := i
			e.Register(sim.TickFunc(func(now sim.Cycle) { n.TickNode(id, now) }))
		}
		return n
	}
}

func buildMesh(e *sim.Engine) noc.Network {
	n := mesh.New(mesh.PaperMesh(8), e)
	e.Register(sim.TickFunc(n.Tick))
	return n
}

func buildCorona(e *sim.Engine) noc.Network {
	n := corona.New(corona.PaperCorona(64), e)
	e.Register(sim.TickFunc(n.Tick))
	return n
}

// drivePackets sends uniform random traffic (60% meta, 40% data, four
// packets every fourth cycle, as noctest does) and runs the engine until
// every accepted packet is delivered; the cost is per delivered packet
// and includes the cycles ticked while they are in flight.
func drivePackets(b time.Duration, nodes int, build netBuilder) float64 {
	e := sim.NewEngine()
	net := build(e)
	delivered := 0
	net.SetDelivery(func(*noc.Packet, sim.Cycle) { delivered++ })
	traffic := sim.NewRNG(1).NewStream("driver-traffic")
	id := uint64(0)
	return perOp(b, func(n int) float64 {
		accepted, start := 0, delivered
		for burst := 0; burst*4 < n; burst++ {
			var pkts [4]*noc.Packet
			for i := range pkts {
				src := traffic.Intn(nodes)
				dst := traffic.Intn(nodes - 1)
				if dst >= src {
					dst++
				}
				typ := noc.Meta
				if traffic.Bool(0.4) {
					typ = noc.Data
				}
				id++
				pkts[i] = &noc.Packet{ID: id, Src: src, Dst: dst, Type: typ}
			}
			e.At(e.Now()+sim.Cycle(1+burst*4), func(sim.Cycle) {
				for _, p := range pkts {
					if net.Send(p) {
						accepted++
					}
				}
			})
		}
		e.Run(sim.Cycle(n + 1)) // past the last injection
		for limit := 0; delivered-start < accepted && limit < 1<<20; limit++ {
			e.Run(16)
		}
		return float64(delivered - start)
	})
}

// driveIdle ticks a network that carries no traffic; the cost is per node
// (or router) per cycle.
func driveIdle(b time.Duration, nodes int, build netBuilder) float64 {
	e := sim.NewEngine()
	build(e).SetDelivery(func(*noc.Packet, sim.Cycle) {})
	return perOp(b, func(n int) float64 { return float64(e.Run(sim.Cycle(n))) * float64(nodes) })
}

// loopback is a one-node memory system over a one-cycle transport: an L1,
// its home directory slice and a memory channel, messages routed as
// system.deliver routes them. It is the coherence tests' rig without a
// network underneath.
type loopback struct {
	e   *sim.Engine
	l1  *coherence.L1
	dir *coherence.Directory
	mem *memory.Controller
}

func (l *loopback) Send(m coherence.Msg) bool {
	l.e.After(1, func(now sim.Cycle) {
		switch m.Type {
		case coherence.ReqMem, coherence.MemWrite:
			l.mem.Handle(m, now)
		case coherence.MemAck, coherence.ReqSh, coherence.ReqEx, coherence.ReqUpg,
			coherence.WriteBack, coherence.InvAck, coherence.DwgAck, coherence.SyncReq:
			l.dir.Handle(m, now)
		default:
			l.l1.Handle(m, now)
		}
	})
	return true
}

func (l *loopback) ConfirmationElision() bool      { return false }
func (l *loopback) BooleanSubscription() bool      { return false }
func (l *loopback) SendBit(int, int, uint64, bool) {}

// driveMiss issues read misses one after another over a window of lines
// four times the L1 but half the directory slice, so in steady state each
// is an L1 miss the L2 slice serves (L1 -> directory -> L1), as four in
// five are in fsoi64-mp3d, and the slice never runs its eviction scan.
func driveMiss(b time.Duration) float64 {
	l := &loopback{e: sim.NewEngine()}
	home := func(cache.LineAddr) int { return 0 }
	l.l1 = coherence.NewL1(0, coherence.PaperL1(), l.e, sim.NewRNG(1), l, home)
	l.dir = coherence.NewDirectory(0, coherence.PaperDir(), l.e, l, func(int) int { return 0 })
	l.mem = memory.NewController(0, memory.PaperMemory(1), l.e, func(m coherence.Msg) { l.Send(m) })
	l.e.Register(l.l1)
	l.e.Register(l.dir)
	const window = 512
	issued := 0
	return perOp(b, func(n int) float64 {
		left := n
		var next func(sim.Cycle)
		next = func(sim.Cycle) {
			if left == 0 {
				return
			}
			left--
			issued++
			if !l.l1.Access(workload.SharedBase+cache.LineAddr(issued%window), false, next) {
				panic("bench: L1 refused a miss with no other miss outstanding")
			}
		}
		next(0)
		for limit := 0; (left > 0 || l.l1.Outstanding() > 0) && limit < 1<<24; limit++ {
			l.e.Run(64)
		}
		return float64(n - left)
	})
}

func driveCacheLookup(b time.Duration) float64 {
	c := cache.New(128, 2)
	for a := cache.LineAddr(0); a < 128; a++ {
		c.Install(a, cache.Shared)
	}
	return perOp(b, func(n int) float64 {
		hits := 0
		for i := 0; i < n; i++ {
			if c.Lookup(cache.LineAddr(i&255)) != nil { // half hit, half miss
				hits++
			}
		}
		sink += float64(hits)
		return float64(n)
	})
}

func driveCacheInstall(b time.Duration) float64 {
	c := cache.New(128, 2)
	a := cache.LineAddr(0)
	return perOp(b, func(n int) float64 {
		for i := 0; i < n; i++ {
			a++
			sink += float64(c.Install(a, cache.Shared).State)
		}
		return float64(n)
	})
}

func driveStream(b time.Duration) float64 {
	app, ok := workload.ByName("mp3d", 1)
	if !ok {
		panic("bench: mp3d missing from the suite")
	}
	app.Steps = 1 << 40
	s := workload.NewStream(app, 0, 64, 1)
	return perOp(b, func(n int) float64 {
		for i := 0; i < n; i++ {
			op, _ := s.Next()
			sink += float64(op.Kind)
		}
		return float64(n)
	})
}

// driveMemory hands line reads to one channel controller and steps the
// engine through each transfer; the cost is per request, reply included.
func driveMemory(b time.Duration) float64 {
	e := sim.NewEngine()
	cfg := memory.PaperMemory(8)
	ctl := memory.NewController(0, cfg, e, func(coherence.Msg) {})
	a := cache.LineAddr(0)
	return perOp(b, func(n int) float64 {
		for i := 0; i < n; i++ {
			a++
			ctl.Handle(coherence.Msg{Type: coherence.ReqMem, Addr: a, From: 1}, e.Now())
			e.Run(cfg.LineOccupancyCycles())
		}
		return float64(n)
	})
}

func driveEmit(b time.Duration) float64 {
	return perOp(b, func(n int) float64 {
		r := obs.NewRecorder(0)
		for i := 0; i < n; i++ {
			r.Emit(obs.Event{At: sim.Cycle(i), ID: uint64(i), Kind: obs.KindTxStart, Src: int32(i & 63), Dst: int32((i + 1) & 63)})
		}
		sink += float64(r.Len())
		return float64(n)
	})
}

func driveObserve(b time.Duration) float64 {
	g := obs.NewRegistry()
	for i := 0; i < 64*64; i++ { // every link's table exists before timing
		g.Observe(uint8(i&1), i&63, (i>>6)&63, 1)
	}
	return perOp(b, func(n int) float64 {
		for i := 0; i < n; i++ {
			g.Observe(uint8(i&1), i&63, (i>>6)&63, int64(i&255))
		}
		return float64(n)
	})
}

// driveEvents applies consume to a recording of 30000 lifecycle events
// (inject, tx-start, deliver per packet over 64 nodes); the cost is per
// recorded event.
func driveEvents(b time.Duration, consume func(*obs.Recorder)) float64 {
	const packets = 10000
	r := obs.NewRecorder(0)
	for i := 0; i < packets; i++ {
		at, src, dst := sim.Cycle(i*3), int32(i&63), int32((i*7+1)&63)
		id := uint64(i + 1)
		r.Emit(obs.Event{At: at, ID: id, Kind: obs.KindInject, Src: src, Dst: dst, Lane: obs.LaneNone})
		r.Emit(obs.Event{At: at + 1, ID: id, Kind: obs.KindTxStart, Src: src, Dst: dst})
		r.Emit(obs.Event{At: at + 2, ID: id, Kind: obs.KindDeliver, Aux: 9, Src: src, Dst: dst, Lane: obs.LaneNone})
	}
	return perOp(b, func(n int) float64 {
		passes := 1 + n/(3*packets)
		for i := 0; i < passes; i++ {
			consume(r)
		}
		return float64(passes * 3 * packets)
	})
}

func driveBER(b time.Duration) float64 {
	inj := fault.New(fault.Config{MarginPenaltyDB: 2}, core.PaperConfig(64), sim.NewRNG(1).NewStream("fault"))
	return perOp(b, func(n int) float64 {
		for i := 0; i < n; i++ {
			sink += inj.BitErrorRate(i&63, sim.Cycle(i))
		}
		return float64(n)
	})
}

func driveNew(b time.Duration, nodes int) float64 {
	return perOp(b, func(n int) float64 {
		for i := 0; i < n; i++ {
			sink += float64(system.New(system.Default(nodes, system.NetFSOI)).Lookahead())
		}
		return float64(n)
	}) / float64(time.Millisecond)
}

func driveCanonical(b time.Duration) float64 {
	app, ok := workload.ByName("jacobi", 1)
	if !ok {
		panic("bench: jacobi missing from the suite")
	}
	app.Steps = 64
	m := system.New(system.Default(16, system.NetFSOI)).Run(app)
	return perOp(b, func(n int) float64 {
		for i := 0; i < n; i++ {
			sink += float64(len(m.Canonical()))
		}
		return float64(n)
	}) / float64(time.Microsecond)
}
