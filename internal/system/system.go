// Package system assembles a chip multiprocessor: cores, private L1s,
// the distributed L2/directory slices, memory controllers, and one of
// the interconnects (Interconnects), then runs a workload and reports
// the paper's metrics.
package system

import (
	"errors"
	"fmt"
	"strconv"

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
	"fsoi/internal/sim/shard" // WindowEngine's signature only
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
	// Shards and ParWorkers have no effect: every run is on the serial
	// engine. They selected the withdrawn windowed engine (DESIGN §12)
	// and stay only because the benchmark's workloads still set them.
	Shards, ParWorkers int
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
// packet free-lists, the packet-ID counters — is indexed by the node
// whose execution context touches it.
type System struct {
	cfg      Config
	engine   *sim.Engine
	la       sim.Cycle // finish-notice delay (the network's lookahead)
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
	obsReg   *obs.Registry
	// What collect merged obsRec into, kept so Obs does not merge again;
	// nil until Run returns.
	obsMerged *obs.Recorder

	// pktSeq counts packets injected per source node; a packet's ID is
	// src+1 + nodes*seq — unique, nonzero, and a pure function of that
	// node's own injection history.
	pktSeq []uint64
	// pktFree recycles retired wire packets per source node, so the
	// transport's steady state allocates nothing per message. Plain
	// slices, deliberately NOT sync.Pools: pool reuse order depends on
	// the Go scheduler and GC, which would let host-machine timing leak
	// into pointer identities, while LIFO reuse from the source node's
	// own slice is a pure function of simulated history and keeps runs
	// byte-identical.
	pktFree [][]*wirePacket

	// Point-to-point ordering state (§4.4), indexed by source node: one
	// in-flight message per (src, dst, line); the rest wait here. A node
	// has one stream per packet it has in flight, a handful, so each
	// node's streams are a slice searched linearly.
	ord [][]ordStream

	// backlogged holds the nodes whose L1 or directory outbox may be
	// non-empty; an outbox only ever grows when transport.Send refuses.
	backlogged *sim.BusySet

	// The alarms of the tickers that sleep until woken: the FSOI
	// busy-node sweep, the outbox drain and the ideal networks' tick.
	sweep, drain, netWake sim.Wake
	ideal                 *mesh.Ideal // the network, when it is L0, Lr1 or Lr2
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
			s.drain.At(s.engine.Now())
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
	return t.s.fsoi != nil && t.s.fsoi.SupportsBooleanSubscription()
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
// node count (NewL1 also checks the L1 geometry) and nothing otherwise.
// Each component resets what it takes to the state a new one starts in,
// so the run is the one New would give.
func build(cfg Config, donor *System) *System {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if donor != nil && donor.cfg.Nodes != cfg.Nodes {
		donor = nil
	}
	var spent *sim.Engine
	if donor != nil {
		spent = donor.engine
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
		engine:  sim.NewEngine(spent),
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
	// Per-node per-cycle work is registered once, not once per node: a
	// sweep over the busy nodes in id order. The FSOI sweep and the ideal
	// networks' tick sleep until their work wakes them; the mesh and the
	// crossbars tick every cycle.
	switch {
	case s.fsoi != nil:
		s.sweep = s.fsoi.RegisterSweep()
	case s.ideal != nil:
		s.netWake = s.ideal.RegisterTick()
	default:
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
		s.l1s = append(s.l1s, coherence.NewL1(i, cfg.L1, s.engine, s.rng.NewStream("l1-"+strconv.Itoa(i)), tr, home, l1))
		s.dirs = append(s.dirs, coherence.NewDirectory(i, cfg.Dir, s.engine, tr, memNode, dir))
	}
	// The controllers' only per-cycle work is re-offering an outbox the
	// network pushed back on, after every network tick of the cycle: l1
	// then directory, in node order, for the nodes transport.Send refused.
	// The drain sleeps until a refusal wakes it.
	s.backlogged = sim.NewBusySet(cfg.Nodes)
	s.drain = sim.Sleeper(s.engine, sim.TickFunc(func(now sim.Cycle) {
		s.backlogged.Each(func(i int) {
			// Cleared first: a Send refused again during the drain
			// re-marks the node and wakes the drain for next cycle.
			s.backlogged.Clear(i)
			s.l1s[i].Tick(now)
			s.dirs[i].Tick(now)
		})
	}))
	for c := 0; c < cfg.Memory.Channels; c++ {
		node := attach[c]
		if s.mems[node] != nil {
			continue
		}
		ctl := memory.NewController(node, cfg.Memory, s.engine, func(m coherence.Msg) {
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
		// One event log over every node, and one registry.
		s.obsRec = obs.NewSharded([]obs.Block{{Lo: 0, Hi: cfg.Nodes}}, 0) // 0: no event limit
		s.obsReg = obs.NewRegistry()
		// Any network exposing an observer hook gets the recorder: FSOI
		// emits the full per-attempt lifecycle through per-node handles,
		// the crossbar family emits tx-start at arbitration grant through
		// node 0's.
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
			// Per-link contention tracking for the detection layer.
			sinks := make([]core.LinkObserver, cfg.Nodes)
			for i := range sinks {
				sinks[i] = s.obsReg
			}
			s.fsoi.SetLinkObservers(sinks)
		}
	}
	s.net.SetDelivery(s.deliver)
	if s.fsoi != nil {
		s.fsoi.SetConfirmDelivery(s.onConfirm)
		s.fsoi.SetBitDelivery(s.onBit)
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
	s.engine.After(1, func(sim.Cycle) {
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
	s.engine.After(1, func(sim.Cycle) { s.launchOrdered(m) })
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
		At: s.engine.Now(), Kind: obs.KindInject, ID: p.ID,
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
// runs in the destination node's context.
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
		s.obsReg.Observe(uint8(p.Type), p.Src, p.Dst, lat)
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
			stream = workload.NewAdversaryStream(sp, app, s.cfg.Nodes, s.cfg.Seed, s.engine.Now)
		}
		c := cpu.New(i, s.cfg.Core, s.engine, s.l1s[i], stream, s.sync, s.onCoreFinish)
		s.cores = append(s.cores, c)
		c.Start()
	}
}

// onCoreFinish counts thread completions and stops the engine when the
// last one lands. Each finishing core's notice reaches node 0 one
// lookahead (Lookahead) after the core finishes.
func (s *System) onCoreFinish(core int, at sim.Cycle) {
	s.engine.At(at+s.la, func(sim.Cycle) {
		s.finished++
		if s.finished == s.cfg.Nodes {
			s.engine.Stop()
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
	}
	s.obsMerged = s.obsRec.Merged()
	m.Obs, m.ObsRegistry = s.obsMerged, s.obsReg
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
func (s *System) Engine() *sim.Engine { return s.engine }

// Lookahead reports the delay of each core's finish notice to node 0:
// the network's declared lookahead (noc.Lookaheader), floor 1.
func (s *System) Lookahead() sim.Cycle { return s.la }

// WindowEngine returns nil: no run is on the windowed engine (DESIGN
// §12). It stays, with its signature, because the benchmark calls it.
func (s *System) WindowEngine() *shard.Windows { return nil }

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

// Obs exposes the lifecycle-event recorder in canonical order (nil
// unless Config.Observe). After Run it is the recorder Run merged,
// Metrics.Obs; before, it is merged on each call.
func (s *System) Obs() *obs.Recorder {
	if s.obsMerged != nil {
		return s.obsMerged
	}
	return s.obsRec.Merged()
}

// ObsRegistry exposes the percentile latency registry (nil unless
// Config.Observe), Metrics.ObsRegistry after Run.
func (s *System) ObsRegistry() *obs.Registry { return s.obsReg }

// CoreStats exposes a core's counters (tests, diagnostics).
func (s *System) CoreStats(i int) *cpu.Stats { return s.cores[i].Stats() }

// Directory exposes a node's home slice (tests).
func (s *System) Directory(i int) *coherence.Directory { return s.dirs[i] }
