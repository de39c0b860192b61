// Package system assembles a chip multiprocessor: cores, private L1s,
// the distributed L2/directory slices, memory controllers, and one of
// the interconnects (Interconnects), then runs a workload and reports
// the paper's metrics.
package system

import (
	"errors"
	"fmt"

	"fsoi/internal/adversary"
	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/core"
	"fsoi/internal/cpu"
	"fsoi/internal/fault"
	"fsoi/internal/memory"
	"fsoi/internal/mesh"
	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/optics"
	"fsoi/internal/power"
	"fsoi/internal/sim"
	"fsoi/internal/sim/shard"
	"fsoi/internal/stats"
	"fsoi/internal/workload"
)

// Config assembles a run.
type Config struct {
	Nodes     int
	Net       NetworkKind
	FSOI      core.Config // used when Net == NetFSOI
	Memory    memory.Config
	L1        coherence.L1Config
	Dir       coherence.DirConfig
	Core      cpu.Config
	Power     power.Params
	Seed      uint64
	MaxCycles sim.Cycle
	// Shards sets the windowed engine's partition when ParWorkers > 0;
	// <= 1 means one shard per worker. Every partition gives the same
	// bytes, and without ParWorkers it is an error: there is no serial
	// sharded schedule.
	Shards int
	// ParWorkers, when > 0, runs the simulation on the windowed parallel
	// engine (internal/sim/shard.Windows): shards advance concurrently
	// through lookahead-wide windows on a worker pool, with cross-shard
	// events buffered and committed at each window barrier. The run is
	// byte-identical at every worker count (ParWorkers 1 is the serial
	// replay of the same schedule) and at every shard count, but is a
	// *different* schedule from the serial engine: cross-node
	// interactions land one lookahead later, exactly as the conservative
	// window discipline requires. Only the FSOI network supports it —
	// the model was restructured so every event executes in the context
	// of the node whose state it touches — and the subscription sync
	// fabric is required (coherent ll/sc spinning shares lock tables
	// across nodes).
	ParWorkers int
	// ForceCoherentSync disables the §5.1 confirmation-channel sync path
	// even when the network supports it (for the ll/sc ablation).
	ForceCoherentSync bool
	// MeshBandwidthFrac throttles mesh injection bandwidth (Figure 11):
	// a fraction in (0, 1], or 0 for unset, which is full rate.
	MeshBandwidthFrac float64
	// MeshRouterCycles overrides the 4-stage router depth when positive;
	// 0 is unset.
	MeshRouterCycles int
	// TracePackets, when positive, keeps the last N delivered packets in
	// a ring buffer exposed through Trace().
	TracePackets int
	// Observe attaches the packet-lifecycle observability layer
	// (internal/obs): every packet's inject/deliver events plus, on FSOI,
	// the per-attempt tx-start/collision/backoff/confirm-drop/drop
	// lifecycle, exported through Metrics.Obs and Metrics.ObsRegistry.
	// Off (the default) the recorder stays nil and every emission site is
	// a single nil check, so metrics are byte-identical either way.
	Observe bool
	// Fault selects the physical-fault models to inject (FSOI only; the
	// mesh baselines have no optical layer to degrade). The zero value
	// attaches nothing and leaves every code path and RNG draw identical
	// to a fault-free build.
	Fault fault.Config
	// Adversaries places hostile nodes on the fabric (FSOI only): each
	// spec'd node runs a hostile operation stream instead of its
	// application thread, and spoofer/starver roles additionally attach
	// an adversary.Model to the optical layer. Honest nodes still run
	// the full application; barrier targets shrink to the honest count.
	// Empty (the default) attaches nothing and leaves every code path
	// and RNG draw identical to an adversary-free build.
	Adversaries []adversary.Spec
	// Detect runs the obs-based anomaly detector over the recorded
	// lifecycle events at collect time, exporting the verdict through
	// Metrics.Detection and the canonical form. Implies Observe.
	Detect bool
	// DetectWindow overrides the detector's collision-counting window in
	// cycles; 0 selects the default.
	DetectWindow int64
}

// Default returns the paper configuration for the given node count and
// network.
func Default(nodes int, net NetworkKind) Config {
	channels := 4
	if nodes > 16 {
		channels = 8
	}
	return Config{
		Nodes:     nodes,
		Net:       net,
		FSOI:      core.PaperConfig(nodes),
		Memory:    memory.PaperMemory(channels),
		L1:        coherence.PaperL1(),
		Dir:       coherence.PaperDir(),
		Core:      cpu.PaperCore(),
		Power:     power.PaperPower(),
		Seed:      1,
		MaxCycles: 40_000_000,
	}
}

// Metrics is the outcome of one run.
type Metrics struct {
	App       string
	Net       string
	Nodes     int
	Cycles    sim.Cycle
	Finished  bool // all threads completed before MaxCycles
	Latency   *noc.LatencyStats
	FSOI      *core.Stats // nil on electrical networks
	Energy    power.Breakdown
	AvgPowerW optics.Watts

	// FaultCounters aggregates the injected-fault census and the
	// resilience events it triggered; nil unless fault injection was on.
	FaultCounters *stats.CounterSet

	// Obs holds the packet-lifecycle event recorder and ObsRegistry the
	// percentile latency tables; both nil unless Config.Observe was set.
	Obs         *obs.Recorder
	ObsRegistry *obs.Registry
	// DroppedPackets counts packets the network permanently gave up on
	// (FSOI retry exhaustion under Config.FSOI.MaxRetries).
	DroppedPackets int64

	// AdversaryNodes counts configured hostile nodes; HonestFinish is
	// the cycle the last *honest* core finished — Cycles includes the
	// attackers' tails, so honest-traffic degradation compares
	// HonestFinish against the attack-free control. Both zero unless
	// Config.Adversaries was set.
	AdversaryNodes int
	HonestFinish   sim.Cycle
	// Detection is the adversarial-traffic detector's verdict over the
	// run's lifecycle events; nil unless Config.Detect was set.
	Detection *obs.Report

	// Traffic and protocol counters aggregated over nodes.
	MetaPackets   int64
	DataPackets   int64
	Invalidations int64
	ElidedAcks    int64
	Nacks         int64
	SyncStall     int64

	// Reply-latency distribution over all read misses (Figure 5).
	ReplyHist *stats.Histogram
}

// Speedup compares run times (baseline cycles / this cycles).
func (m Metrics) Speedup(baseline Metrics) float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(m.Cycles)
}

// System is one assembled CMP.
//
// Every piece of per-packet mutable state — the ordering tables, the
// packet free-lists, the packet-ID counters, the observability sinks —
// is indexed by the node whose execution context touches it, so the
// assembly runs unchanged on the serial engine and the windowed
// parallel engine.
type System struct {
	cfg      Config
	engine   sim.Driver
	winEng   *shard.Windows // non-nil when cfg.ParWorkers > 0
	la       sim.Cycle      // cross-node handback delay (the network's lookahead)
	rng      *sim.RNG
	net      noc.Network
	fsoi     *core.Network
	meshNet  *mesh.Network
	l1s      []*coherence.L1
	dirs     []*coherence.Directory
	mems     []*memory.Controller // by attach node; nil where none is attached
	cores    []*cpu.Core
	sync     syncFabric
	injector *fault.Injector
	finished int // owned by node 0: finish notices ride handbacks there
	tracer   *noc.ShardedTracer
	obsRec   *obs.Sharded
	obsReg   []*obs.Registry // per engine block: the registry of the nodes the block holds
	blockOf  []int32         // node -> its engine block's index
	// What collect merged them into, kept so the accessors do not merge
	// again; nil until Run returns.
	obsMerged    *obs.Recorder
	obsRegMerged *obs.Registry

	// pktSeq counts packets injected per source node; a packet's ID is
	// src+1 + nodes*seq — unique, nonzero, and a pure function of that
	// node's own injection history, so IDs are identical at every shard
	// and worker count.
	pktSeq []uint64
	// pktFree recycles retired wire packets per source node, so the
	// transport's steady state allocates nothing per message. Plain
	// slices, deliberately NOT sync.Pools: pool reuse order depends on
	// the Go scheduler and GC, which would let host-machine timing leak
	// into pointer identities, while LIFO reuse from the source node's
	// own slice is a pure function of simulated history and keeps runs
	// byte-identical. Every retirement site executes in the source
	// node's context (a rejected send, a confirmation, a drop) except
	// the electrical networks' delivery-time retirement, which only ever
	// runs single-threaded.
	pktFree [][]*wirePacket

	// Point-to-point ordering state (§4.4), indexed by source node: one
	// in-flight message per (src, dst, line); the rest wait here. A node
	// has one stream per packet it has in flight, a handful, so each
	// node's streams are a slice searched linearly.
	ord [][]ordStream

	// backlogged holds the nodes whose L1 or directory outbox may be
	// non-empty; an outbox only ever grows when transport.Send refuses.
	backlogged *sim.BusySet

	// The alarms of the tickers that sleep until woken: per block, the
	// FSOI busy-node sweep and the outbox drain; the ideal networks' tick.
	sweeps, drains []sim.Wake
	netWake        sim.Wake
	ideal          *mesh.Ideal // the network, when it is L0, Lr1 or Lr2
}

// ordStream is one ordered (dst, line) message stream of its source node
// with a message in flight, and the messages queued behind that one,
// oldest first.
type ordStream struct {
	dst  int
	addr cache.LineAddr
	wait []coherence.Msg
}

// stream returns the index of m's stream among its source's, or -1.
func (s *System) stream(m coherence.Msg) int {
	for i := range s.ord[m.From] {
		if st := &s.ord[m.From][i]; st.dst == m.To && st.addr == m.Addr {
			return i
		}
	}
	return -1
}

// sched resolves the scheduling surface for one node: the node's proxy
// on the windowed engine, the engine itself otherwise.
func (s *System) sched(node int) sim.Scheduler { return sim.SchedulerFor(s.engine, node) }

// transport adapts the system to coherence.Transport.
type transport struct{ s *System }

// wirePacket is a packet pooled together with the protocol message it
// carries. Payload points back at the record, so wrapping a message for
// the wire boxes nothing, and the network (which only ever sees the
// embedded *noc.Packet) hands the message back with it.
type wirePacket struct {
	noc.Packet
	msg coherence.Msg
}

// wireOf recovers the record behind a packet the network hands back.
func wireOf(p *noc.Packet) *wirePacket {
	w, ok := p.Payload.(*wirePacket)
	if !ok {
		panic("system: foreign payload on the interconnect")
	}
	return w
}

// packetFor wraps a protocol message for the wire, reusing a retired
// record from the source node's free-list when one is available.
func (t transport) packetFor(m coherence.Msg) *wirePacket {
	s := t.s
	src := m.From
	s.pktSeq[src]++
	var p *wirePacket
	if free := s.pktFree[src]; len(free) > 0 {
		n := len(free) - 1
		p = free[n]
		free[n] = nil
		s.pktFree[src] = free[:n]
	} else {
		p = new(wirePacket)
	}
	p.ID = uint64(src) + 1 + uint64(s.cfg.Nodes)*s.pktSeq[src]
	p.Src = m.From
	p.Dst = m.To
	p.msg = m
	p.Payload = p
	if m.HasData {
		p.Type = noc.Data
	}
	switch m.Type {
	case coherence.DataS, coherence.DataE, coherence.DataM, coherence.MemAck:
		p.IsReply = true
	case coherence.WriteBack:
		p.IsWriteback = m.HasData
	}
	switch m.Type {
	case coherence.ReqMem, coherence.MemWrite, coherence.MemAck:
		p.IsMemory = true
	case coherence.ReqSh, coherence.ReqEx:
		p.ExpectsDataReply = true
	}
	return p
}

// Send enforces the §4.4 point-to-point ordering invariant Table 2
// assumes: at most one message per (source, destination, line) is in
// flight; later ones queue at the source until the earlier is known
// delivered. On FSOI "known delivered" is the confirmation's arrival
// back at the sender — the confirmation-based serialization the paper
// describes — so the release runs in the source node's own context; on
// the mesh it models deterministic routing with ordered per-class
// channels and releases at delivery.
func (t transport) Send(m coherence.Msg) bool {
	s := t.s
	if i := s.stream(m); i >= 0 {
		st := &s.ord[m.From][i]
		st.wait = append(st.wait, m)
		return true
	}
	p := t.packetFor(m)
	if !s.net.Send(&p.Packet) {
		s.recycle(p)
		// The refused message goes to its sender's outbox (or a retry
		// event): the node joins the outbox drain, waking it for this
		// cycle's turn, or the next cycle's once this one's has come.
		if s.backlogged.Mark(m.From) {
			s.drains[s.blockOf[m.From]].At(s.engine.Now())
		}
		return false
	}
	s.observeInject(&p.Packet)
	s.ord[m.From] = append(s.ord[m.From], ordStream{dst: m.To, addr: m.Addr})
	return true
}

func (t transport) ConfirmationElision() bool {
	return t.s.fsoi != nil && t.s.fsoi.SupportsConfirmation()
}

func (t transport) BooleanSubscription() bool {
	return t.s.fsoi != nil && t.s.fsoi.SupportsBooleanSubscription() && !t.s.cfg.ForceCoherentSync
}

func (t transport) SendBit(from, to int, tag uint64, value bool) {
	if t.s.fsoi == nil {
		panic("system: SendBit without FSOI network")
	}
	t.s.fsoi.SendConfirmBit(from, to, tag, value)
}

// Validate reports why New would refuse the configuration: everything
// a flag or a JSON spec can get wrong, as an error the CLIs print
// instead of the stack trace New's panic would give.
func (cfg Config) Validate() error {
	if _, err := ParseNetwork(string(cfg.Net)); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if _, err := MeshDim(cfg.Nodes); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if len(cfg.Adversaries) > 0 {
		if cfg.Net != NetFSOI {
			return fmt.Errorf("system: adversaries target the FSOI shared medium (got %v)", cfg.Net)
		}
		if err := adversary.Validate(cfg.Adversaries, cfg.Nodes); err != nil {
			return fmt.Errorf("system: %w", err)
		}
		if len(cfg.Adversaries) >= cfg.Nodes {
			return errors.New("system: at least one honest node is required")
		}
	}
	if f := cfg.MeshBandwidthFrac; !(f >= 0 && f <= 1) {
		return fmt.Errorf("system: MeshBandwidthFrac %v is not a fraction in (0, 1] (0 = unset, full rate)", f)
	}
	if cfg.MeshRouterCycles < 0 {
		return fmt.Errorf("system: MeshRouterCycles %d is negative (0 = unset, the 4-stage router)", cfg.MeshRouterCycles)
	}
	if (cfg.Observe || cfg.Detect) && cfg.Nodes > obs.MaxNodes {
		return fmt.Errorf("system: Observe tells at most %d nodes apart (got %d)", obs.MaxNodes, cfg.Nodes)
	}
	if cfg.Shards > 1 && cfg.ParWorkers <= 0 {
		return fmt.Errorf("system: Shards %d partitions the windowed engine and needs ParWorkers > 0", cfg.Shards)
	}
	if cfg.ParWorkers > 0 {
		if cfg.Net != NetFSOI {
			return fmt.Errorf("system: ParWorkers requires the FSOI network (got %v): only its model keeps every event in the touched node's context", cfg.Net)
		}
		if !cfg.FSOI.Opt.BooleanSubscription || cfg.ForceCoherentSync {
			return errors.New("system: ParWorkers requires the subscription sync fabric; coherent ll/sc spinning shares lock tables across nodes")
		}
	}
	return nil
}

// New assembles a system. It panics with Validate's message on a
// configuration Validate rejects; callers holding user input check
// Validate first.
func New(cfg Config) *System { return build(cfg, nil) }

// Runner runs simulations one after another, building each from the
// storage of the one it ran before (see build). The zero value is ready;
// a Runner is not safe for concurrent use, so a pool keeps one per
// worker. Its callers only ever see Metrics, which alias none of the
// storage the next run takes over.
type Runner struct {
	last *System // the spent system of the previous Run, the next donor
}

// Run builds a system of cfg, runs app on it and returns its metrics,
// which are byte for byte those of New(cfg).Run(app).
func (r *Runner) Run(cfg Config, app workload.App) Metrics {
	donor := r.last
	r.last = nil // a donor gives its storage once, even to a build that panics
	s := build(cfg, donor)
	m := s.Run(app)
	r.last = s
	return m
}

// build is New, given a donor: a finished system whose storage the new
// one may take over. The donor gives its L1 arrays, its directories' record
// slabs and tables and its engine's queues when it has the new system's
// shape (node count, both on the serial engine; NewL1 also checks the L1
// geometry) and nothing otherwise. Each component resets what it takes to
// the state a new one starts in, so the run is the one New would give.
func build(cfg Config, donor *System) *System {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if donor != nil && (donor.cfg.Nodes != cfg.Nodes || donor.winEng != nil || cfg.ParWorkers > 0) {
		donor = nil
	}
	if cfg.Detect {
		// The detector consumes the lifecycle-event record.
		cfg.Observe = true
	}
	s := &System{
		cfg:     cfg,
		rng:     sim.NewRNG(cfg.Seed),
		mems:    make([]*memory.Controller, cfg.Nodes),
		la:      1,
		pktSeq:  make([]uint64, cfg.Nodes),
		pktFree: make([][]*wirePacket, cfg.Nodes),
		ord:     make([][]ordStream, cfg.Nodes),
	}
	if cfg.ParWorkers > 0 {
		k := cfg.Shards
		if k < 2 {
			k = cfg.ParWorkers
		}
		s.winEng = shard.NewWindows(k, cfg.ParWorkers)
		s.winEng.AssignNodes(cfg.Nodes)
		s.engine = s.winEng
	} else {
		var spent *sim.Engine
		if donor != nil {
			spent = donor.engine.(*sim.Engine)
		}
		s.engine = sim.NewEngine(spent)
	}
	dim := dimOf(cfg.Nodes)
	tr := transport{s}

	net, _ := lookup(cfg.Net) // Validate checked the name
	s.net = net.build(cfg, s.engine, s.rng)
	switch n := s.net.(type) {
	case *core.Network:
		s.fsoi = n
		if cfg.Fault.Enabled() {
			// The injector's streams derive only when injection is on, so
			// fault-free runs keep the pre-existing stream genealogy and
			// stay bit-identical.
			s.injector = fault.New(cfg.Fault, cfg.fsoiConfig(), s.rng.NewStream("fault"))
			s.fsoi.SetFaultModel(s.injector)
		}
		if len(cfg.Adversaries) > 0 {
			// The optical-layer half of the roster; the hostile streams
			// are installed per node in Run. Adversary-free runs attach
			// nothing and draw nothing.
			s.fsoi.SetAdversaryModel(adversary.NewModel(cfg.Adversaries, cfg.Nodes))
		}
	case *mesh.Network:
		s.meshNet = n
	case *mesh.Ideal:
		s.ideal = n
	}
	if la, ok := s.net.(noc.Lookaheader); ok && la.Lookahead() > 1 {
		s.la = la.Lookahead()
	}
	if s.winEng != nil {
		s.winEng.SetLookahead(s.la)
	}
	// Per-node per-cycle work is registered once per block of nodes
	// sharing a shard, not once per node: a sweep over the block's busy
	// nodes in id order, through the block's first node's scheduler, so
	// it ticks in that shard's context on the windowed engine. The serial
	// engine has one block. The sweeps sleep until their work wakes them,
	// as does the ideal networks' tick (the windowed engine runs them
	// every cycle instead); the mesh and the crossbars tick every cycle.
	blocks := sim.Blocks(s.engine, cfg.Nodes)
	s.blockOf = make([]int32, cfg.Nodes)
	for k, blk := range blocks {
		for i := blk.Lo; i < blk.Hi; i++ {
			s.blockOf[i] = int32(k)
		}
	}
	switch {
	case s.fsoi != nil:
		// FSOI has no global tick: every node's slice of the network
		// ticks in that node's own shard context.
		s.sweeps = s.fsoi.RegisterSweeps()
	case s.ideal != nil:
		s.netWake = s.ideal.RegisterTick()
	default:
		// The electrical and crossbar networks tick globally; they run
		// only on the serial engine (Validate refuses ParWorkers off FSOI).
		s.engine.Register(sim.TickFunc(s.net.Tick))
	}

	home := func(a cache.LineAddr) int { return int(uint64(a) % uint64(cfg.Nodes)) }
	attach := memory.AttachNodes(dim, cfg.Memory.Channels)
	memNode := func(h int) int { return attach[h%cfg.Memory.Channels] }

	for i := 0; i < cfg.Nodes; i++ {
		var (
			l1  *coherence.L1
			dir *coherence.Directory
		)
		if donor != nil {
			l1, dir = donor.l1s[i], donor.dirs[i]
		}
		s.l1s = append(s.l1s, coherence.NewL1(i, cfg.L1, s.sched(i), s.rng.NewStream(fmt.Sprintf("l1-%d", i)), tr, home, l1))
		s.dirs = append(s.dirs, coherence.NewDirectory(i, cfg.Dir, s.sched(i), tr, memNode, dir))
	}
	// The controllers' only per-cycle work is re-offering an outbox the
	// network pushed back on, after every network tick of the cycle: l1
	// then directory, in node order, for the nodes transport.Send refused.
	// A block's drain sleeps until a refusal there wakes it.
	s.backlogged = sim.NewBusySet(blocks)
	for k, blk := range blocks {
		s.drains = append(s.drains, sim.Sleeper(s.sched(blk.Lo), sim.TickFunc(func(now sim.Cycle) {
			s.backlogged.Each(k, func(i int) {
				// Cleared first: a Send refused again during the drain
				// re-marks the node and wakes the drain for next cycle.
				s.backlogged.Clear(i)
				s.l1s[i].Tick(now)
				s.dirs[i].Tick(now)
			})
		})))
	}
	for c := 0; c < cfg.Memory.Channels; c++ {
		node := attach[c]
		if s.mems[node] != nil {
			continue
		}
		ctl := memory.NewController(node, cfg.Memory, s.sched(node), func(m coherence.Msg) {
			if !tr.Send(m) {
				// Memory replies retry through the engine until the NIC
				// accepts them.
				s.retrySend(m)
			}
		})
		s.mems[node] = ctl
	}

	if cfg.TracePackets > 0 {
		s.tracer = noc.NewShardedTracer(cfg.Nodes, cfg.TracePackets)
	}
	if cfg.Observe {
		// One event log and one registry per block: a block's nodes run
		// on one shard, so nothing recorded is touched from two.
		s.obsRec = obs.NewSharded(blocks, 0) // 0: no event limit
		s.obsReg = make([]*obs.Registry, len(blocks))
		for k := range blocks {
			s.obsReg[k] = obs.NewRegistry()
		}
		// Any network exposing an observer hook gets the recorder: FSOI
		// emits the full per-attempt lifecycle through per-node handles,
		// the crossbar family (single-threaded by construction) emits
		// tx-start at arbitration grant through node 0's.
		switch o := s.net.(type) {
		case interface{ SetObserver(r *obs.Sharded) }:
			o.SetObserver(s.obsRec)
		case interface{ SetObserver(r *obs.Recorder) }:
			o.SetObserver(s.obsRec.For(0))
		}
		if s.injector != nil {
			s.injector.AnnotateTrace(s.obsRec)
		}
		if s.fsoi != nil {
			// Per-link contention tracking for the detection layer: every
			// observation lands in the registry of the executing node's block.
			sinks := make([]core.LinkObserver, cfg.Nodes)
			for i := range sinks {
				sinks[i] = s.obsReg[s.blockOf[i]]
			}
			s.fsoi.SetLinkObservers(sinks)
		}
	}
	s.net.SetDelivery(s.deliver)
	if s.fsoi != nil {
		s.fsoi.SetConfirmDelivery(s.onConfirm)
		s.fsoi.SetBitDelivery(s.onBit)
		s.fsoi.SetDropDelivery(s.onDrop)
	}

	if tr.BooleanSubscription() {
		s.sync = newSubscriptionSync(s, tr)
	} else {
		s.sync = newCoherentSync(s)
	}
	return s
}

// retrySend keeps attempting a message until the network accepts it,
// always from the source node's own context.
func (s *System) retrySend(m coherence.Msg) {
	s.sched(m.From).After(1, func(sim.Cycle) {
		if !(transport{s}).Send(m) {
			s.retrySend(m)
		}
	})
}

// orderedDone releases the (src, dst, line) stream and launches the next
// queued message, retrying through the engine when the NIC pushes back.
// It must run in the source node's context: at the confirmation or drop
// on FSOI, at delivery (single-threaded by construction) elsewhere.
func (s *System) orderedDone(m coherence.Msg) {
	i := s.stream(m)
	if i < 0 {
		return
	}
	ss := s.ord[m.From]
	st := &ss[i]
	if len(st.wait) == 0 {
		last := len(ss) - 1
		ss[i], ss[last] = ss[last], ordStream{}
		s.ord[m.From] = ss[:last]
		return
	}
	// Shift down rather than re-slice: the queue keeps its capacity for
	// the stream's next waiter.
	next := st.wait[0]
	st.wait = st.wait[:copy(st.wait, st.wait[1:])]
	s.launchOrdered(next)
}

func (s *System) launchOrdered(m coherence.Msg) {
	p := (transport{s}).packetFor(m)
	if s.net.Send(&p.Packet) {
		s.observeInject(&p.Packet)
		return
	}
	s.recycle(p)
	s.sched(m.From).After(1, func(sim.Cycle) { s.launchOrdered(m) })
}

// observeInject records a packet's acceptance by the network, in the
// source node's context. Injection time is the source's current cycle:
// Send only succeeds synchronously, so no separate timestamp needs to
// ride on the packet.
func (s *System) observeInject(p *noc.Packet) {
	if s.obsRec == nil {
		return
	}
	s.obsRec.For(p.Src).Emit(obs.Event{
		At: s.sched(p.Src).Now(), Kind: obs.KindInject, ID: p.ID,
		Src: int32(p.Src), Dst: int32(p.Dst),
		Class: uint8(p.Type), Lane: obs.LaneNone,
	})
}

// recycle retires a wire packet to its source node's free-list. Callers
// must guarantee the network holds no further reference: a rejected Send,
// a non-FSOI delivery (the networks' last touch), or an FSOI confirmation
// (which fires strictly after delivery, exactly once per packet — a
// duplicate re-delivery only ever re-confirms when the earlier
// confirmation beam was dropped, and that earlier confirmation never ran
// this callback). Records are scrubbed here, at retirement, not lazily
// at reuse: zeroing only in packetFor would let any new reuse path that
// forgot the reset hand out a packet still carrying the previous
// message's retry count and cycle stamps.
func (s *System) recycle(p *wirePacket) {
	src := p.Src
	*p = wirePacket{}
	s.pktFree[src] = append(s.pktFree[src], p)
}

// deliver routes an arriving packet to its destination controller. It
// runs in the destination node's context; everything it touches —
// tracer ring, event log, registry, the controller itself — is the
// destination's own or its block's.
func (s *System) deliver(p *noc.Packet, now sim.Cycle) {
	w := wireOf(p)
	m := w.msg
	if s.fsoi == nil {
		// Electrical networks have no confirmation; delivery is the
		// moment the ordered stream releases (deterministic routing
		// keeps per-class channels ordered). FSOI streams release at the
		// confirmation instead — see onConfirm.
		s.orderedDone(m)
	}
	if s.tracer != nil {
		s.tracer.For(p.Dst).Record(p, now)
	}
	if s.obsRec != nil {
		lat := p.TotalLatency()
		s.obsRec.For(p.Dst).Emit(obs.Event{
			At: now, Kind: obs.KindDeliver, ID: p.ID, Aux: lat,
			Src: int32(p.Src), Dst: int32(p.Dst), Attempt: int32(p.Retries),
			Class: uint8(p.Type), Lane: obs.LaneNone,
		})
		s.obsReg[s.blockOf[p.Dst]].Observe(uint8(p.Type), p.Src, p.Dst, lat)
	}
	switch m.Type {
	case coherence.ReqMem, coherence.MemWrite:
		ctl := s.mems[m.To]
		if ctl == nil {
			panic(fmt.Sprintf("system: no memory controller at node %d", m.To))
		}
		ctl.Handle(m, now)
	case coherence.MemAck,
		coherence.ReqSh, coherence.ReqEx, coherence.ReqUpg,
		coherence.WriteBack, coherence.InvAck, coherence.DwgAck,
		coherence.SyncReq:
		s.dirs[m.To].Handle(m, now)
	case coherence.SyncResp:
		s.sync.onSyncResp(m, now)
	default:
		s.l1s[m.To].Handle(m, now)
	}
	if s.fsoi == nil {
		// Electrical networks never touch a packet after delivery; FSOI
		// packets stay live until their confirmation callback.
		s.recycle(w)
	}
}

// onConfirm handles sender-side confirmations (FSOI), in the source
// node's context: an elided-ack Inv's confirmation is the invalidation
// ack, and the confirmation is the sender's proof of delivery that
// releases the packet's ordered (src, dst, line) stream.
func (s *System) onConfirm(p *noc.Packet, now sim.Cycle) {
	w := wireOf(p)
	m := w.msg
	if m.Type == coherence.Inv && m.Value {
		s.dirs[m.From].OnInvConfirm(m.Addr, now)
	}
	s.orderedDone(m)
	s.recycle(w)
}

// onDrop handles the FSOI network permanently giving up on a packet
// (Config.FSOI.MaxRetries), in the source node's context. The ordered
// (src, dst, line) stream is released so later messages do not wedge
// behind the corpse, the fate lands in the ring buffer with a terminal
// DROPPED status, and the packet retires to the free-list — a drop is
// the network's last touch. The coherence message itself is lost by
// design; a run with drops may legitimately report Finished=false,
// which is exactly the resilience signal the fault experiments measure.
func (s *System) onDrop(p *noc.Packet, now sim.Cycle) {
	w := wireOf(p)
	s.orderedDone(w.msg)
	if s.tracer != nil {
		s.tracer.For(p.Src).RecordStatus(p, now, noc.StatusDropped)
	}
	s.recycle(w)
}

// onBit routes confirmation-lane booleans to the sync fabric; it runs
// in the receiving node's context.
func (s *System) onBit(src, dst int, tag uint64, value bool, now sim.Cycle) {
	s.sync.onBit(dst, tag, value, now)
}

// Run executes one application to completion (or MaxCycles) and gathers
// metrics.
func (s *System) Run(app workload.App) Metrics {
	s.start(app)
	s.engine.Run(s.cfg.MaxCycles)
	if s.winEng != nil {
		s.winEng.Close()
	}
	return s.collect(app.Name)
}

// start sets every core running its thread of app.
func (s *System) start(app workload.App) {
	// Barrier target: every honest core participates in barrier 0.
	// Hostile streams emit no barriers, so counting the attackers would
	// wedge every honest thread at its first barrier.
	advBy := make(map[int]adversary.Spec, len(s.cfg.Adversaries))
	for _, sp := range s.cfg.Adversaries {
		advBy[sp.Node] = sp
	}
	honest := s.cfg.Nodes - len(advBy)
	for _, d := range s.dirs {
		d.Sync().SetBarrierTarget(0, honest)
	}
	s.sync.setBarrierTarget(0, honest)

	// One call, so the streams share the app's Zipf table; a hostile
	// node's entry goes unused.
	honestStreams := workload.NewStreams(app, s.cfg.Nodes, s.cfg.Seed)
	for i := 0; i < s.cfg.Nodes; i++ {
		var stream cpu.Stream = honestStreams[i]
		if sp, hostile := advBy[i]; hostile {
			stream = workload.NewAdversaryStream(sp, app, s.cfg.Nodes, s.cfg.Seed, s.sched(i).Now)
		}
		c := cpu.New(i, s.cfg.Core, s.sched(i), s.l1s[i], stream, s.sync, s.onCoreFinish)
		s.cores = append(s.cores, c)
		c.Start()
	}
}

// onCoreFinish counts thread completions and stops the engine when the
// last one lands. The counter is owned by node 0: each finishing core
// hands its notice there one lookahead ahead, so the count never races
// and the stop commits at a window barrier — the final cycle count is
// identical at every shard and worker count.
func (s *System) onCoreFinish(core int, at sim.Cycle) {
	noc.ScheduleAt(s.sched(core), 0, at+s.la, func(sim.Cycle) {
		s.finished++
		if s.finished == s.cfg.Nodes {
			s.sched(0).Stop()
		}
	})
}

// collect assembles the metrics of a finished run.
func (s *System) collect(app string) Metrics {
	m := Metrics{
		App:      app,
		Net:      string(s.cfg.Net),
		Nodes:    s.cfg.Nodes,
		Cycles:   s.engine.Now(),
		Finished: s.finished == s.cfg.Nodes,
		Latency:  s.net.LatencyStats(),
	}
	if s.fsoi != nil {
		m.FSOI = s.fsoi.Stats()
		m.DroppedPackets = m.FSOI.Dropped[core.LaneMeta] + m.FSOI.Dropped[core.LaneData]
	}
	s.obsMerged, s.obsRegMerged = s.obsRec.Merged(), s.ObsRegistry()
	m.Obs, m.ObsRegistry = s.obsMerged, s.obsRegMerged
	if len(s.cfg.Adversaries) > 0 {
		m.AdversaryNodes = len(s.cfg.Adversaries)
		hostile := make(map[int]bool, m.AdversaryNodes)
		for _, sp := range s.cfg.Adversaries {
			hostile[sp.Node] = true
		}
		for i, c := range s.cores {
			if f := c.Stats().FinishCycle; !hostile[i] && f > m.HonestFinish {
				m.HonestFinish = f
			}
		}
	}
	if s.cfg.Detect {
		m.Detection = m.Obs.Detect(obs.DetectorConfig{WindowCycles: s.cfg.DetectWindow})
	}
	if s.injector != nil {
		m.FaultCounters = s.injector.Counters()
		st := s.fsoi.Stats()
		m.FaultCounters.Inc("bit_errors", st.BitErrors)
		m.FaultCounters.Inc("header_corruptions", st.HeaderCorruptions)
		m.FaultCounters.Inc("payload_crc_errors", st.PayloadCRCErrors)
		m.FaultCounters.Inc("confirm_drops", st.ConfirmDrops)
		m.FaultCounters.Inc("timeout_retransmits", st.TimeoutRetransmits)
		m.FaultCounters.Inc("duplicate_deliveries", st.DuplicateDeliveries)
		m.FaultCounters.Inc("degraded_transmissions", st.DegradedTransmissions)
	}
	m.ReplyHist = stats.NewHistogram(5, 60)
	var ops, l1acc, l2acc int64
	for i, l1 := range s.l1s {
		st := l1.Stats()
		m.Invalidations += st.Invalidations
		m.ElidedAcks += st.ElidedAcks
		m.Nacks += st.Nacks
		l1acc += st.Hits + st.Misses
		mergeHist(m.ReplyHist, st.MissHist)
		ops += s.cores[i].Stats().Ops
		m.SyncStall += s.cores[i].Stats().StallSync
	}
	for _, d := range s.dirs {
		l2acc += d.Stats().Requests + d.Stats().MemReads
	}
	m.MetaPackets = int64(m.Latency.ByType[noc.Meta].N())
	m.DataPackets = int64(m.Latency.ByType[noc.Data].N())

	act := power.Activity{
		Cycles:     m.Cycles,
		Nodes:      s.cfg.Nodes,
		Ops:        ops,
		L1Accesses: l1acc,
		L2Accesses: l2acc,
	}
	if s.fsoi != nil {
		st := m.FSOI
		bitsTx := st.Attempts[core.LaneMeta]*72 + st.Attempts[core.LaneData]*360
		act.OpticalBitsTx = bitsTx
		act.OpticalBitsRx = bitsTx
		act.ConfirmBits = st.ConfirmBits + st.ConfirmSignals
		act.OpticalLanes = 3 // meta + data + confirmation
		act.OpticalRxPerNode = 2*s.cfg.FSOI.Receivers + 1
		slots := st.SlotsObserved[core.LaneMeta] + st.SlotsObserved[core.LaneData]
		if slots > 0 {
			act.TxBusyFraction = float64(st.Attempts[core.LaneMeta]+st.Attempts[core.LaneData]) / float64(slots)
		}
		m.Energy = s.cfg.Power.FSOIEnergy(act)
	} else {
		if s.meshNet != nil {
			act.FlitHops = s.meshNet.FlitHops()
		} else {
			// Ideal networks: charge hop activity as if routed, so the
			// energy comparison stays conservative.
			act.FlitHops = estimateFlitHops(m.Latency, s.cfg.Nodes)
		}
		act.Routers = s.cfg.Nodes
		m.Energy = s.cfg.Power.MeshEnergy(act)
	}
	m.AvgPowerW = s.cfg.Power.AveragePower(m.Energy, m.Cycles)
	return m
}

// estimateFlitHops approximates flit-hop activity for contention-free
// networks from delivered packet counts and the average hop count of a
// dim x dim mesh.
func estimateFlitHops(l *noc.LatencyStats, nodes int) int64 {
	avgHops := float64(2*dimOf(nodes)) / 3
	flits := float64(l.ByType[noc.Meta].N())*1 + float64(l.ByType[noc.Data].N())*5
	return int64(flits * (avgHops + 1))
}

// mergeHist folds src into dst bucket-wise (same shape by construction).
func mergeHist(dst, src *stats.Histogram) {
	for i := 0; i < src.NumBuckets(); i++ {
		dst.AddN(int64(i)*5, src.Bucket(i))
	}
	dst.AddN(int64(src.NumBuckets())*5, src.Overflow())
}

// Diagnose reports stuck state after a run that failed to finish: cores
// that never completed and lines wedged in transient states.
func (s *System) Diagnose() string {
	out := ""
	for i, c := range s.cores {
		if c != nil && !c.Done() {
			out += fmt.Sprintf("core %d not done: ops=%d outstandingL1=%d\n", i, c.Stats().Ops, s.l1s[i].Outstanding())
		}
	}
	for i, d := range s.dirs {
		out += d.DumpTransients(fmt.Sprintf("dir %d", i))
	}
	return out
}

// Engine exposes the simulation engine (tests, fsoisim -profile).
func (s *System) Engine() sim.Driver { return s.engine }

// Lookahead reports the cross-node handback delay the assembly honours
// for its own scheduling (the finish-notice handbacks): the network's
// declared lookahead, floor 1.
func (s *System) Lookahead() sim.Cycle { return s.la }

// WindowEngine exposes the windowed parallel engine when
// Config.ParWorkers > 0 selected it, for the window/handoff/stall
// meters; nil otherwise.
func (s *System) WindowEngine() *shard.Windows { return s.winEng }

// L1 exposes a node's L1 controller (tests).
func (s *System) L1(i int) *coherence.L1 { return s.l1s[i] }

// Trace exposes the delivered-packet ring buffer, merged across nodes
// in canonical order (nil unless Config.TracePackets was set).
func (s *System) Trace() *noc.Tracer {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Merged()
}

// Obs exposes the lifecycle-event recorder, merged across engine blocks
// in canonical order (nil unless Config.Observe). After Run it is the
// recorder Run merged, Metrics.Obs; before, it is merged on each call.
func (s *System) Obs() *obs.Recorder {
	if s.obsMerged != nil {
		return s.obsMerged
	}
	return s.obsRec.Merged()
}

// ObsRegistry exposes the percentile latency registry (nil unless
// Config.Observe): the one block's own on the serial engine, the blocks'
// folded together otherwise. After Run it is the registry Run folded,
// Metrics.ObsRegistry; before, it is folded on each call.
func (s *System) ObsRegistry() *obs.Registry {
	switch {
	case s.obsRegMerged != nil:
		return s.obsRegMerged
	case s.obsReg == nil:
		return nil
	case len(s.obsReg) == 1:
		return s.obsReg[0]
	}
	out := obs.NewRegistry()
	for _, g := range s.obsReg {
		out.Merge(g)
	}
	return out
}

// CoreStats exposes a core's counters (tests, diagnostics).
func (s *System) CoreStats(i int) *cpu.Stats { return s.cores[i].Stats() }

// Directory exposes a node's home slice (tests).
func (s *System) Directory(i int) *coherence.Directory { return s.dirs[i] }
