package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
)

// CollisionKind classifies data-lane collisions for Figure 10.
type CollisionKind int

const (
	// CollisionRetransmission involves at least one retried packet.
	CollisionRetransmission CollisionKind = iota
	// CollisionWriteback involves an eviction data packet.
	CollisionWriteback
	// CollisionMemory involves a memory-controller packet.
	CollisionMemory
	// CollisionReply is between ordinary data replies.
	CollisionReply
	numCollisionKinds
)

// String names the collision kind.
func (k CollisionKind) String() string {
	switch k {
	case CollisionRetransmission:
		return "retransmission"
	case CollisionWriteback:
		return "writeback"
	case CollisionMemory:
		return "memory"
	default:
		return "reply"
	}
}

// ConfirmFunc is invoked at the sender when the confirmation beam for a
// cleanly received packet arrives (receipt + ConfirmDelay cycles).
type ConfirmFunc func(p *noc.Packet, now sim.Cycle)

// BitFunc receives a boolean-subscription update carried on a reserved
// confirmation mini-cycle.
type BitFunc func(src, dst int, tag uint64, value bool, now sim.Cycle)

// transmission is one attempt-carrying packet instance.
//
// The record travels with the beam: it lies in the destination's arrival
// bucket from the slot's end until the destination's tick resolves it,
// and a failed attempt is back on its sender's retry list a confirmation
// delay later.
//
// Records are recycled through their source node's free list
// (nodeState.txFree), because a record binds its source and the receiver
// its beam lands on when it is first allocated: acquired in startSlot (in
// Send, by a packet to its own node) and released exactly once, by the
// confirmation event. A lost confirmation keeps the record live until the
// duplicate's confirmation. Every event in a packet's life is one of the
// callbacks below, bound when the record is first allocated and reading
// its arguments from the record: an attempt schedules no closure. Only a
// pipelined delivery is ever pending beside another event. It fires
// ConfirmDelay or more before its own confirmation; had that been lost,
// the duplicate's confirmation is a timeout, a slot and the same
// degradation pipeline further out, which a steering delay of a cycle or
// so (PhaseSetup) never outlasts.
type transmission struct {
	pkt          *noc.Packet
	src          int
	lane         Lane
	rcv          int       // receiver the beam lands on at the destination
	attempt      int       // 0 on the first transmission
	firstSlotEnd sim.Cycle // end of the first attempted slot
	steerExtra   int       // phase-array retarget penalty this attempt
	degradeExtra int       // VCSEL-failure serialization penalty this attempt
	ber          float64   // per-bit error probability, sampled at launch
	winner       bool      // selected by a retransmission hint
	failedSlot   int64     // slot of the attempt being handed back
	retrySlot    int64     // earliest slot index for the next attempt
	delivered    bool      // payload landed but the confirmation was lost

	n         *Network
	arriveFn  func(now sim.Cycle) // the beam lands on the destination's receiver
	deliverFn func(now sim.Cycle) // the payload leaves a steering or degradation pipeline
	backoffFn func(now sim.Cycle) // a failed attempt is back at its sender
	confirmFn func(now sim.Cycle) // the confirmation beam reaches the sender
	requeueFn func(now sim.Cycle) // the sender's confirmation timeout
}

// acquire takes a scrubbed transmission from node id's free list, or
// allocates one and binds its callbacks, its source and its receiver.
func (n *Network) acquire(id int, ns *nodeState) *transmission {
	if k := len(ns.txFree); k > 0 {
		tx := ns.txFree[k-1]
		ns.txFree = ns.txFree[:k-1]
		return tx
	}
	tx := &transmission{n: n, src: id, rcv: id % n.cfg.Receivers}
	tx.arriveFn, tx.deliverFn, tx.backoffFn, tx.confirmFn, tx.requeueFn = tx.arrive, tx.deliver, tx.backoff, tx.confirm, tx.requeue
	return tx
}

// release scrubs tx down to what it was born with and returns it to its
// source's free list. The caller holds the last reference.
func (n *Network) release(tx *transmission) {
	*tx = transmission{
		n: n, src: tx.src, rcv: tx.rcv,
		arriveFn: tx.arriveFn, deliverFn: tx.deliverFn, backoffFn: tx.backoffFn, confirmFn: tx.confirmFn, requeueFn: tx.requeueFn,
	}
	ns := n.nodes[tx.src]
	ns.txFree = append(ns.txFree, tx)
}

// arrive lands the beam on the destination's receiver at the end of the
// slot.
func (tx *transmission) arrive(now sim.Cycle) {
	dst := tx.pkt.Dst
	d := tx.n.nodes[dst]
	d.arr[tx.lane][tx.rcv] = append(d.arr[tx.lane][tx.rcv], tx)
	d.arrMask[tx.lane] |= 1 << uint(tx.rcv)
	tx.n.join(dst, now, true) // the slot ends, and the next opens, now
}

// deliver hands over a payload held back by a pipeline.
func (tx *transmission) deliver(now sim.Cycle) { tx.n.deliver(tx.pkt, now) }

// confirm is the confirmation's arrival at the sender: the record's
// last event.
func (tx *transmission) confirm(now sim.Cycle) {
	n, p := tx.n, tx.pkt
	n.release(tx)
	if n.confirmFn != nil {
		n.confirmFn(p, now)
	}
}

// requeue parks a delivered-but-unconfirmed transmission for its
// timeout retransmission.
func (tx *transmission) requeue(now sim.Cycle) { tx.n.parkRetry(tx, now) }

// nodeState is one node's transmit machinery: its lanes' queues and
// retries, its receivers' arrivals and its reservation and reply-timing
// tables.
type nodeState struct {
	queue    [numLanes][]queued // outgoing packets, each with its scheduling hold
	retries  [numLanes][]*transmission
	txFree   []*transmission // retired records, reused last in first out
	wbFree   []*wbSplit      // likewise, the writeback split's
	lastDst  [numLanes]int
	heldDsts []int // startSlot scratch: destinations behind a held packet

	// arr accumulates the transmissions that landed on each of this
	// node's receivers during the slot ending now; the node's own tick
	// resolves and clears each group at the slot boundary. arrMask has
	// bit r set exactly when arr[l][r] is non-empty (New keeps
	// Receivers within one word, MaxReceivers).
	arr     [numLanes][][]*transmission
	arrMask [numLanes]uint64

	// due is the least retrySlot on each lane's retry list, MaxInt64 when
	// the list is empty: no retry can launch in an earlier slot.
	due [numLanes]int64

	// reserved is the receiver-side reservation table for the data lane
	// (receiver scheduling + writeback split).
	reserved slotWindow

	// expecting logs the outstanding requests expecting data replies, per
	// responder, to estimate reply timing.
	expecting replyLog
	replyEWMA float64

	// corrupt is the last packet-corruption probability this node worked
	// out as a receiver, per lane. A lane carries one packet size and,
	// without a fault model, every launch one BER, so nearly every clean
	// slot asks for the value just computed.
	corrupt [numLanes]corruptMemo
}

// empty clears a spent node state's queues, retry lists, arrival buckets,
// tables and memos, keeping their storage and the records on its free
// lists: what is left is a new node state's zero values, for start.
func (ns *nodeState) empty() {
	for l := range ns.queue {
		clear(ns.queue[l])
		clear(ns.retries[l])
		ns.queue[l], ns.retries[l] = ns.queue[l][:0], ns.retries[l][:0]
		for r, group := range ns.arr[l] {
			clear(group)
			ns.arr[l][r] = group[:0]
		}
	}
	ns.heldDsts = ns.heldDsts[:0]
	ns.arrMask = [numLanes]uint64{}
	ns.reserved.slots = ns.reserved.slots[:0]
	ns.expecting.reset()
	ns.corrupt = [numLanes]corruptMemo{}
}

// start gives a new or emptied node state the values it starts with that
// are not zero.
func (ns *nodeState) start() {
	for l := range ns.lastDst {
		ns.lastDst[l], ns.due[l] = -1, math.MaxInt64
	}
	ns.replyEWMA = 30
}

// corruptMemo is one remembered 1-(1-ber)^bits, keyed by the BER's bit
// pattern and the packet size so that a hit is two integer compares.
type corruptMemo struct {
	berBits uint64
	bits    int
	p       float64
}

// corruptionProb returns the probability that independent bit errors at
// rate ber corrupt a packet of the given size on lane l. A BER that
// differs at all from the last one (a fault model samples it per sender
// and per launch) is computed afresh.
func (ns *nodeState) corruptionProb(l Lane, ber float64, bits int) float64 {
	m := &ns.corrupt[l]
	if key := math.Float64bits(ber); m.berBits != key || m.bits != bits {
		*m = corruptMemo{key, bits, 1 - math.Pow(1-ber, float64(bits))}
	}
	return m.p
}

// Stats carries FSOI-specific measurements beyond noc.LatencyStats.
type Stats struct {
	Attempts       [numLanes]int64 // transmissions including retries
	Collided       [numLanes]int64 // attempts that ended in a collision
	Collisions     [numLanes]int64 // collision events (>= 2 attempts each)
	Delivered      [numLanes]int64
	SlotsObserved  [numLanes]int64 // node-slots elapsed (filled by Network.Stats from the cycle count)
	DataByKind     [numCollisionKinds]int64
	HintsIssued    int64
	HintsCorrect   int64
	HintsWrong     int64 // wrong node believed it won
	ConfirmBits    int64 // boolean-subscription mini-cycle uses
	ConfirmSignals int64 // packet confirmations sent
	BitErrors      int64
	ScheduledHolds int64 // packets delayed by receiver scheduling / wb split

	// Fault-injection counters (all zero unless a FaultModel is attached).
	HeaderCorruptions     int64 // bit errors in the PID/~PID header: misdetected collisions
	PayloadCRCErrors      int64 // bit errors caught by the payload CRC
	ConfirmDrops          int64 // confirmation beams lost
	TimeoutRetransmits    int64 // retransmissions launched by the confirmation timeout
	DuplicateDeliveries   int64 // re-received packets discarded at the receiver
	DegradedTransmissions int64 // attempts stretched by failed VCSELs

	// Adversarial-traffic counters (zero unless an AdversaryModel is
	// attached) and backoff-depth metering (always on — the detection
	// layer's baseline needs it on honest runs too).
	SpoofedHeaders  int64           // arrivals misdetected as collisions by forged PID headers
	StarvedConfirms int64           // confirmation beams suppressed by a starver
	MaxBackoffDepth [numLanes]int64 // deepest attempt count any transmission reached
}

// TransmissionProbability reports attempts per node per slot for a lane,
// the x-axis of Figure 9.
func (s *Stats) TransmissionProbability(l Lane) float64 {
	if s.SlotsObserved[l] == 0 {
		return 0
	}
	return float64(s.Attempts[l]) / float64(s.SlotsObserved[l])
}

// CollisionRate reports the fraction of attempts that collided, the
// y-axis of Figure 9.
func (s *Stats) CollisionRate(l Lane) float64 {
	if s.Attempts[l] == 0 {
		return 0
	}
	return float64(s.Collided[l]) / float64(s.Attempts[l])
}

// RetransmissionRate reports extra attempts per delivered packet on a
// lane — the fault sweep's degradation metric: 0 when every packet lands
// first try, 1 when packets need two attempts on average.
func (s *Stats) RetransmissionRate(l Lane) float64 {
	if s.Delivered[l] == 0 {
		return 0
	}
	return float64(s.Attempts[l]-s.Delivered[l]) / float64(s.Delivered[l])
}

// Network is the FSOI interconnect.
//
// Besides each node's transmit machinery (nodeState) and confirmation
// lane, two things stay per node for the numbers they give. Each node
// draws from a stream of its own, derived by name in node order: one
// stream would interleave the nodes' draws and move every result. And
// each node accumulates the latencies delivered to it, merged in node
// order when read: one accumulator would add the same samples in another
// order and move the stddev digits of the canonical listing.
type Network struct {
	cfg       Config
	slotLen   [numLanes]int64 // cfg.SlotCycles per lane, computed once
	windows   [64]float64     // windows[k] = WindowW*BackoffB^k, filled in New and read-only after (see window)
	engine    *sim.Engine
	nrng      []*sim.RNG // per-node random streams, derived in node order
	deliverFn noc.DeliveryFunc
	confirmFn ConfirmFunc
	bitFn     BitFunc
	obs       *obs.Recorder // nil unless lifecycle tracing is on
	lat       []noc.LatencyStats
	stats     Stats
	nodes     []*nodeState
	busy      *sim.BusySet // nodes with a packet queued, in retry, or arriving
	sweep     sim.Wake     // the busy-node sweep's alarm (zero until RegisterSweep)
	conf      *confLane
	ber       float64        // per-bit error probability on the signaling chain
	fault     FaultModel     // nil unless an injector is attached
	adv       AdversaryModel // nil unless an attack roster is attached
}

// New builds an FSOI network over the engine; it panics on a
// configuration past the bounds of its own structure (a spec's rows keep
// user input inside them; every other value is the caller's). Given the
// network of a finished simulation with as many nodes and receivers,
// which no one uses any more, it resets and returns that one for cfg: its
// node states, transmission and writeback records, reservation and
// reply-timing tables and per-node generators keep their storage. Another
// donor is ignored.
func New(cfg Config, engine *sim.Engine, rng *sim.RNG, donor ...*Network) *Network {
	if cfg.Receivers > MaxReceivers || !(cfg.MaxBackoffSlots > LockstepBackoffSlots) || cfg.ConfirmDelay < 1 {
		// A writeback grant finds its packet still queued only when the
		// confirmation takes a cycle (DESIGN §8, "Holds live on the queue entry").
		panic(fmt.Sprintf("core: want at most %d receivers, a backoff cap above %d slots and a confirmation of a cycle or more; have %d, %v and %d",
			MaxReceivers, LockstepBackoffSlots, cfg.Receivers, cfg.MaxBackoffSlots, cfg.ConfirmDelay))
	}
	var n *Network
	if len(donor) > 0 && donor[0] != nil && donor[0].cfg.Nodes == cfg.Nodes && donor[0].cfg.Receivers == cfg.Receivers {
		n = donor[0]
		clear(n.lat)
		for _, ns := range n.nodes {
			ns.empty()
		}
	} else {
		n = &Network{
			conf:  newConfLane(cfg.Nodes, cfg.BitsPerCycle),
			nrng:  make([]*sim.RNG, cfg.Nodes),
			lat:   make([]noc.LatencyStats, cfg.Nodes),
			nodes: make([]*nodeState, cfg.Nodes),
		}
		// The node states come from one slab, and so do all receivers'
		// arrival buckets.
		states := make([]nodeState, cfg.Nodes)
		buckets := make([][]*transmission, cfg.Nodes*int(numLanes)*cfg.Receivers)
		for i := range n.nodes {
			ns := &states[i]
			for l := range ns.arr {
				ns.arr[l], buckets = buckets[:cfg.Receivers:cfg.Receivers], buckets[cfg.Receivers:]
			}
			n.nodes[i] = ns
		}
	}
	n.reset(cfg, engine, rng)
	return n
}

// reset puts a new or emptied network (New empties a donor's node states
// and latency accumulators) in the state a new one for cfg starts in,
// over engine: no packet queued, in flight or remembered, every counter
// zero, no callback, observer, fault or adversary model attached, and
// each node's generator derived afresh from rng.
func (n *Network) reset(cfg Config, engine *sim.Engine, rng *sim.RNG) {
	n.cfg, n.engine, n.ber = cfg, engine, 1e-10
	n.deliverFn, n.confirmFn, n.bitFn, n.obs, n.fault, n.adv = nil, nil, nil, nil, nil, nil
	n.stats, n.sweep = Stats{}, sim.Wake{}
	n.conf.reset(cfg.BitsPerCycle)
	n.busy = sim.NewBusySet(cfg.Nodes, n.busy)
	for l := range n.slotLen {
		n.slotLen[l] = int64(cfg.SlotCycles(Lane(l)))
	}
	for k := range n.windows {
		n.windows[k] = cfg.WindowW * math.Pow(cfg.BackoffB, float64(k))
	}
	base := rng.NewStream("fsoi")
	for i, ns := range n.nodes {
		n.nrng[i] = base.NewStream("node-"+strconv.Itoa(i), n.nrng[i])
		ns.start()
	}
}

// SetBitErrorRate overrides the default 1e-10 signaling BER; §4.3.1
// argues the collision mechanism lets BER relax to ~1e-5 with no
// tangible performance impact, which the failure-injection tests verify.
func (n *Network) SetBitErrorRate(ber float64) { n.ber = ber }

// LatencyStats merges the per-node latency accumulators, in node order,
// into a fresh aggregate. Call it after (or between) runs, not once and
// cached.
func (n *Network) LatencyStats() *noc.LatencyStats {
	out := &noc.LatencyStats{}
	for i := range n.lat {
		out.Merge(&n.lat[i])
	}
	return out
}

// Lookahead is the finish-notice delay the system layer uses on FSOI
// (noc.Network): the fixed confirmation delay (+2 cycles in the
// paper), the least delay of any cross-node event the network
// schedules — a slot arrival (one slot length, ≥ ConfirmDelay at paper
// widths), a failure handback or confirmation (exactly ConfirmDelay).
func (n *Network) Lookahead() sim.Cycle {
	la := sim.Cycle(n.cfg.ConfirmDelay)
	// A transmission's arrival lands one slot ahead, so a lane with slots
	// shorter than the confirmation delay (an unusual but legal
	// lane-width choice) caps it.
	for _, s := range n.slotLen {
		if sim.Cycle(s) < la {
			la = sim.Cycle(s)
		}
	}
	return la
}

// Stats returns a copy of the counters. Every node sees every slot
// boundary whether or not it had work there, so SlotsObserved is the
// boundaries in [0, now) times the node count rather than a tally.
func (n *Network) Stats() *Stats {
	out := n.stats
	now := int64(n.engine.Now())
	for l, slotLen := range n.slotLen {
		out.SlotsObserved[l] = int64(n.cfg.Nodes) * ((now + slotLen - 1) / slotLen)
	}
	return &out
}

// SetDelivery installs the destination callback.
func (n *Network) SetDelivery(fn noc.DeliveryFunc) { n.deliverFn = fn }

// SetConfirmDelivery installs the sender-side confirmation callback used
// for point-to-point ordering and ack elision.
func (n *Network) SetConfirmDelivery(fn ConfirmFunc) { n.confirmFn = fn }

// SetBitDelivery installs the boolean-subscription callback.
func (n *Network) SetBitDelivery(fn BitFunc) { n.bitFn = fn }

// SetObserver attaches a lifecycle-event recorder. Passing nil detaches
// it; with no recorder attached every emission site is a single nil check
// and the transmit path allocates nothing extra.
func (n *Network) SetObserver(r *obs.Recorder) { n.obs = r }

// observe records one lifecycle event of tx.
func (n *Network) observe(kind obs.Kind, tx *transmission, l Lane, at sim.Cycle, aux int64) {
	n.obs.Emit(obs.Event{
		At: at, Kind: kind, ID: tx.pkt.ID, Aux: aux,
		Src: int32(tx.src), Dst: int32(tx.pkt.Dst),
		Attempt: int32(tx.attempt), Class: uint8(tx.pkt.Type), Lane: int8(l),
	})
}

// SupportsConfirmation reports that this network confirms clean packet
// receipt in hardware, enabling ack elision.
func (n *Network) SupportsConfirmation() bool { return n.cfg.Opt.AckElision }

// SupportsBooleanSubscription reports mini-cycle boolean updates.
func (n *Network) SupportsBooleanSubscription() bool {
	return n.cfg.Opt.BooleanSubscription
}

// laneFor classifies a packet onto its lane.
func laneFor(p *noc.Packet) Lane {
	if p.Type == noc.Data {
		return LaneData
	}
	return LaneMeta
}

// Send enqueues a packet on its source's outgoing queue for its lane.
func (n *Network) Send(p *noc.Packet) bool {
	if p.Src == p.Dst {
		// Same-node traffic short-circuits through the local port in one
		// cycle; the optical layer is never involved, but the sender
		// still sees a (trivially successful) confirmation. The two
		// events ride a transmission record's bound callbacks; a node
		// never logs a request to itself, so deliver's reply-timing step
		// finds nothing.
		p.Created = n.engine.Now()
		p.NetworkDelay = 1
		tx := n.acquire(p.Src, n.nodes[p.Src])
		tx.pkt = p
		n.engine.After(1, tx.deliverFn)
		n.engine.After(1+sim.Cycle(n.cfg.ConfirmDelay), tx.confirmFn)
		return true
	}
	lane := laneFor(p)
	ns := n.nodes[p.Src]
	if len(ns.queue[lane]) >= n.cfg.OutQueue {
		return false
	}
	p.Created = n.engine.Now()
	ns.queue[lane] = append(ns.queue[lane], n.schedulePacket(ns, p, lane))
	n.join(p.Src, p.Created, false)
	return true
}

// schedulePacket applies the §5.2 scheduling optimizations and returns the
// packet's queue entry, with a not-before cycle when one of them holds it.
func (n *Network) schedulePacket(ns *nodeState, p *noc.Packet, lane Lane) queued {
	q := queued{pkt: p}
	now := n.engine.Now()
	dataSlot := n.slotLen[LaneData]
	switch {
	case lane == LaneMeta && p.ExpectsDataReply && n.cfg.Opt.ReceiverScheduling:
		// Reserve the most likely reply slot at our own receiver; if it
		// is taken, delay the request until the estimate lands free.
		first := (int64(now) + int64(ns.replyEWMA)) / dataSlot
		slot := ns.reserved.reserve(first, int64(now)/dataSlot)
		if slot > first {
			q.notBefore, q.held = now+sim.Cycle((slot-first)*dataSlot), true
			n.stats.ScheduledHolds++
		}
		ns.expecting.push(p.Dst, now)
	case lane == LaneData && p.IsWriteback && n.cfg.Opt.WritebackSplit:
		// Split transaction: a meta-sized announcement rides to the home
		// node (the 2-cycle handshake), the home node picks a free slot
		// at its receiver, and the grant rides back; the writeback itself
		// is held until the granted slot opens. Both legs are ordinary
		// node-to-node events: the reservation is made when the
		// announcement lands at the home node.
		cd := sim.Cycle(n.cfg.ConfirmDelay)
		q.notBefore, q.held = now+2*cd, true // provisional: the grant, landing then, sets the real one
		n.stats.ScheduledHolds++
		var wb *wbSplit
		if k := len(ns.wbFree); k > 0 {
			wb, ns.wbFree = ns.wbFree[k-1], ns.wbFree[:k-1]
		} else {
			wb = &wbSplit{n: n}
			wb.announceFn, wb.grantFn = wb.announce, wb.grant
		}
		wb.pkt = p
		n.engine.At(now+cd, wb.announceFn)
	}
	return q
}

// SendConfirmBit transmits one boolean over a reserved confirmation
// mini-cycle (§5.1): the sender's confirmation lane carries the bit at
// the subscriber's reserved offset, arriving after the confirmation
// delay plus any mini-cycle queueing (essentially never, at 12 minis per
// cycle — but measured, not assumed).
func (n *Network) SendConfirmBit(src, dst int, tag uint64, value bool) {
	n.stats.ConfirmBits++
	n.conf.reserve(src, dst)
	now := n.engine.Now()
	extra := n.conf.sendDelay(src, now, 1)
	n.engine.At(now+sim.Cycle(n.cfg.ConfirmDelay)+extra, func(now sim.Cycle) {
		if n.bitFn != nil {
			n.bitFn(src, dst, tag, value, now)
		}
	})
}

// RegisterSweep puts the network's per-cycle work on the engine it was
// built over: one Tick sweep over the busy nodes. The sweep sleeps until
// a node has work at a slot boundary: a node joining the busy set wakes
// it, and it re-arms itself while a node stays busy. It returns the
// sweep's alarm.
func (n *Network) RegisterSweep() sim.Wake {
	n.sweep = sim.Sleeper(n.engine, sim.TickFunc(n.Tick))
	return n.sweep
}

// Tick advances the network one cycle. The network is relay-free and
// unarbitrated, so a node with nothing queued, nothing in backoff and
// nothing arriving has no work at a slot boundary, and no node has any
// between boundaries: only the busy nodes are ticked, in ascending id
// order, and only on a cycle that opens a slot on some lane. While a
// node stays busy the sweep re-arms for the next such cycle.
func (n *Network) Tick(now sim.Cycle) {
	slot, opens, next := n.slotsAt(now)
	if opens {
		n.busy.Each(func(id int) { n.tickNode(id, slot, now) })
	}
	if n.busy.Any() {
		n.sweep.At(next)
	}
}

// slotsAt reports, per lane, the slot that opens at cycle now (-1 where
// none does), whether any does, and the first cycle after now that opens
// one.
func (n *Network) slotsAt(now sim.Cycle) (slot [numLanes]int64, opens bool, next sim.Cycle) {
	next = math.MaxInt64
	for l, slotLen := range n.slotLen {
		q, r := int64(now)/slotLen, int64(now)%slotLen
		slot[l] = -1
		if r == 0 {
			slot[l], opens = q, true
		}
		next = min(next, now+sim.Cycle(slotLen-r))
	}
	return slot, opens, next
}

// NextSweep reports the first cycle from now on in which the sweep has
// work: the next slot boundary on either lane, while a node is busy.
func (n *Network) NextSweep(now sim.Cycle) (sim.Cycle, bool) {
	if !n.busy.Any() {
		return 0, false
	}
	return n.nextBoundary(now), true
}

// nextBoundary returns the first cycle from now on that opens a slot on
// some lane.
func (n *Network) nextBoundary(now sim.Cycle) sim.Cycle {
	if _, opens, next := n.slotsAt(now); !opens {
		return next
	}
	return now
}

// join adds node id to the busy set at cycle now. A node that was not
// busy wakes the sweep for the first slot boundary from now on, which is
// now when the caller says so; one that was already has it armed.
func (n *Network) join(id int, now sim.Cycle, boundary bool) {
	if n.busy.Mark(id) {
		if !boundary {
			now = n.nextBoundary(now)
		}
		n.sweep.At(now)
	}
}

// TickNode advances one node one cycle, for drivers that tick node by
// node; calling it for every node every cycle is equivalent to Tick. An
// idle node returns at once.
func (n *Network) TickNode(id int, now sim.Cycle) {
	if n.busy.Has(id) {
		slot, _, _ := n.slotsAt(now)
		n.tickNode(id, slot, now)
	}
}

// tickNode is the per-node body, given the slot each lane opens now (-1
// for none). At each lane's slot boundary the node first resolves the
// slot that just ended on each of its receivers (delivering clean
// transmissions, adjudicating collisions, handing failures back to their
// senders), then its lane serializer picks the next transmission for the
// opening slot. The node's busy bit is dropped once the tick leaves
// nothing queued, in retry or arriving.
func (n *Network) tickNode(id int, slots [numLanes]int64, now sim.Cycle) {
	ns := n.nodes[id]
	for l := Lane(0); l < numLanes; l++ {
		slot := slots[l]
		if slot < 0 {
			continue
		}
		// Only the receivers with arrivals, in ascending order. Arrivals
		// are appended only in the event phase, so no bit is set and no
		// bucket grows while the groups resolve.
		for m := ns.arrMask[l]; m != 0; m &= m - 1 {
			rcv := bits.TrailingZeros64(m)
			group := ns.arr[l][rcv]
			ns.arr[l][rcv] = group[:0]
			n.resolveGroup(id, l, slot-1, group, now)
		}
		ns.arrMask[l] = 0
		n.startSlot(id, ns, l, slot, now)
	}
	if ns.idle() {
		n.busy.Clear(id)
	}
}

// idle reports that the node has no per-cycle work: nothing queued,
// nothing awaiting retransmission and nothing landed on a receiver.
func (ns *nodeState) idle() bool {
	for l := range ns.queue {
		if len(ns.queue[l]) > 0 || len(ns.retries[l]) > 0 || ns.arrMask[l] != 0 {
			return false
		}
	}
	return true
}

// startSlot picks at most one transmission for node id on lane l in the
// slot beginning now: a hint winner first, then due retries, then the
// first eligible queued packet.
func (n *Network) startSlot(id int, ns *nodeState, l Lane, slot int64, now sim.Cycle) {
	// No retry is due before ns.due[l]; when one is, the slot is a
	// retry's: a hint winner's unconditionally, else the earliest due,
	// which is the first retry whose slot is ns.due[l].
	if ns.due[l] <= slot {
		pick, earliest := -1, -1
		for i, tx := range ns.retries[l] {
			if tx.winner && tx.retrySlot <= slot {
				pick = i
				break
			}
			if earliest < 0 && tx.retrySlot == ns.due[l] {
				earliest = i
			}
		}
		if pick < 0 {
			pick = earliest
		}
		n.transmit(id, ns, ns.takeRetry(l, pick), l, slot, now)
		return
	}
	// Fresh packet from the queue, respecting scheduling holds. A held
	// packet blocks only packets to the same destination, preserving
	// point-to-point order.
	ns.heldDsts = ns.heldDsts[:0]
	for i, q := range ns.queue[l] {
		p := q.pkt
		if q.held && q.notBefore > now {
			ns.heldDsts = append(ns.heldDsts, p.Dst)
			continue
		}
		if slices.Contains(ns.heldDsts, p.Dst) {
			continue
		}
		ns.queue[l] = append(ns.queue[l][:i], ns.queue[l][i+1:]...)
		tx := n.acquire(id, ns)
		tx.pkt, tx.lane = p, l
		// Split the wait between intentional scheduling (the hold we
		// installed) and plain queuing.
		wait := int64(now - p.Created)
		if q.held {
			hold := int64(q.notBefore - p.Created)
			if hold > wait {
				hold = wait
			}
			p.SchedulingDelay = hold
			p.QueuingDelay = wait - hold
		} else {
			p.QueuingDelay = wait
		}
		n.transmit(id, ns, tx, l, slot, now)
		return
	}
}

// transmit launches one attempt: the beam lands on the destination's
// receiver at the end of the slot, where the destination's own tick
// resolves whatever accumulated. The per-bit error probability is
// sampled here, at the sender — the fault model's margin and thermal
// state belong to the sender — and carried on the transmission.
func (n *Network) transmit(id int, ns *nodeState, tx *transmission, l Lane, slot int64, now sim.Cycle) {
	p := tx.pkt
	tx.steerExtra = 0
	if n.cfg.PhaseArray && ns.lastDst[l] != p.Dst {
		tx.steerExtra = n.cfg.PhaseSetup
		ns.lastDst[l] = p.Dst
	}
	tx.degradeExtra = 0
	if n.fault != nil {
		if ext := n.fault.SlotExtension(id, l); ext > 0 {
			tx.degradeExtra = ext
			n.stats.DegradedTransmissions++
		}
	}
	tx.ber = n.ber
	if n.fault != nil {
		tx.ber = n.fault.BitErrorRate(id, now)
	}
	n.stats.Attempts[l]++
	if n.obs != nil {
		kind := obs.KindTxStart
		if tx.attempt > 0 {
			kind = obs.KindRetransmit
		}
		n.observe(kind, tx, l, now, slot)
	}
	// The beam lands on the destination's receiver at the slot's end.
	n.engine.At(sim.Cycle((slot+1)*n.slotLen[l]), tx.arriveFn)
}

// resolveGroup adjudicates one receiver slot of node dst at its end: a
// single uncorrupted transmission is delivered and confirmed; anything
// else collides and every participant is handed back to its sender.
func (n *Network) resolveGroup(dst int, l Lane, slot int64, group []*transmission, now sim.Cycle) {
	st := &n.stats
	if len(group) == 1 {
		tx := group[0]
		// Independent bit errors corrupt the packet with probability
		// ~bits*BER; an error looks exactly like a collision to the
		// sender (no confirmation) and is retried the same way. The
		// probability was sampled at launch (tx.ber); the corruption draw
		// happens here, on the receiver's stream.
		if tx.ber > 0 && n.nrng[dst].Bool(n.nodes[dst].corruptionProb(l, tx.ber, tx.pkt.Type.Bits())) {
			st.BitErrors++
			if n.fault != nil {
				// Locate the corruption: header errors break the PID/~PID
				// match and register as a (single-party) collision — the
				// paper's own detection path; payload errors pass the
				// header check and are caught by the modelled CRC, which
				// triggers the same NACK-free retransmission.
				headerFrac := float64(pidHeaderBits) / float64(tx.pkt.Type.Bits())
				if n.nrng[dst].Bool(headerFrac) {
					st.HeaderCorruptions++
					st.Collisions[l]++
					st.Collided[l]++
					if l == LaneData {
						st.DataByKind[classify(group)]++
					}
				} else {
					st.PayloadCRCErrors++
				}
			}
			n.collide(dst, tx, l, slot, now, false)
			return
		}
		// A spoofer's arrival carries a forged PID/~PID header: the match
		// fails and the receiver misdetects a collision — the packet is
		// not delivered and the sender retries into an ever-deeper backoff
		// window, burning the victim's slots each time (§4.3.1's detection
		// mechanism turned against itself). The draw runs on the
		// receiver's stream.
		if n.adv != nil && n.adv.SpoofedHeader(tx.src, now, n.nrng[dst]) {
			st.SpoofedHeaders++
			st.Collisions[l]++
			st.Collided[l]++
			if l == LaneData {
				st.DataByKind[classify(group)]++
			}
			n.collide(dst, tx, l, slot, now, false)
			return
		}
		n.deliverClean(dst, tx, l, slot, now)
		return
	}
	// Collision: the receiver sees the OR of the beams; PID/~PID headers
	// disagree, so everyone involved must retry.
	st.Collisions[l]++
	st.Collided[l] += int64(len(group))
	if l == LaneData {
		st.DataByKind[classify(group)]++
	}
	winnerPicked := false
	if l == LaneData && n.cfg.Opt.RetransmitHints {
		winnerPicked = n.issueHint(dst, group)
	}
	for _, tx := range group {
		n.collide(dst, tx, l, slot, now, winnerPicked && tx.winner)
	}
}

// collide ends one failed attempt at receiver dst, whatever failed it (a
// bit error, a spoofed header or a real collision): the receiver records
// a collision, the packet counts a retry, and the sender is handed the
// failure.
func (n *Network) collide(dst int, tx *transmission, l Lane, slot int64, now sim.Cycle, isWinner bool) {
	if n.obs != nil {
		n.observe(obs.KindCollision, tx, l, now, slot)
	}
	tx.attempt++
	tx.pkt.Retries++
	if tx.firstSlotEnd == 0 {
		tx.firstSlotEnd = now
	}
	n.failBack(dst, tx, slot, now, isWinner)
}

// classify maps a data-lane collision to its Figure 10 kind.
func classify(group []*transmission) CollisionKind {
	anyRetry, anyWB, anyMem := false, false, false
	for _, tx := range group {
		if tx.attempt > 0 {
			anyRetry = true
		}
		if tx.pkt.IsWriteback {
			anyWB = true
		}
		if tx.pkt.IsMemory {
			anyMem = true
		}
	}
	switch {
	case anyRetry:
		return CollisionRetransmission
	case anyWB:
		return CollisionWriteback
	case anyMem:
		return CollisionMemory
	default:
		return CollisionReply
	}
}

// issueHint has the colliding receiver guess one sender from the
// corrupted PID pattern and its outstanding-reply knowledge, and beam a
// winner notification through the confirmation laser. It reports whether
// a true participant was selected.
func (n *Network) issueHint(dst int, group []*transmission) bool {
	st := &n.stats
	rng := n.nrng[dst]
	st.HintsIssued++
	if !rng.Bool(n.cfg.HintAccuracy) {
		// Mis-identification: usually harmless (a node not transmitting
		// ignores the hint), occasionally a wrong node believes it won
		// and retries immediately, which we model as no winner plus a
		// chance of an extra immediate contender.
		if rng.Bool(n.cfg.WrongWinner / (1 - n.cfg.HintAccuracy)) {
			st.HintsWrong++
		}
		return false
	}
	st.HintsCorrect++
	// Prefer the longest-suffering contender (the receiver knows who has
	// been retrying at it), breaking ties randomly so no sender starves.
	pick := group[rng.Intn(len(group))]
	for _, tx := range group {
		if tx.attempt > pick.attempt {
			pick = tx
		}
	}
	pick.winner = true
	return true
}

// failBack returns a failed transmission to its sender: physically, the
// sender learns of the failure when no confirmation arrives, slot end +
// ConfirmDelay. The failed slot and the hint
// verdict ride on the record; the backoff draw then runs on the sender's
// stream.
func (n *Network) failBack(from int, tx *transmission, slot int64, now sim.Cycle, isWinner bool) {
	tx.failedSlot, tx.winner = slot, isWinner
	n.engine.At(now+sim.Cycle(n.cfg.ConfirmDelay), tx.backoffFn)
}

// backoff schedules a retransmission. The
// sender learns of the failure at slot end + ConfirmDelay, by which time
// the next slot's launch has passed: a hint winner goes in the second
// slot after the collision, everyone else draws from the exponential
// window starting one later. The sender never gives up on a packet: it
// retries until the confirmation beam arrives.
func (tx *transmission) backoff(now sim.Cycle) {
	n, l, slot := tx.n, tx.lane, tx.failedSlot
	// Backoff-depth metering: the deepest
	// attempt count any transmission reaches is the detection layer's
	// strongest per-link anomaly signal under adversarial load.
	if d := int64(tx.attempt); d > n.stats.MaxBackoffDepth[l] {
		n.stats.MaxBackoffDepth[l] = d
	}
	if tx.winner {
		tx.retrySlot = slot + 2
		n.parkRetry(tx, now)
		if n.obs != nil {
			n.observe(obs.KindBackoff, tx, l, now, tx.retrySlot)
		}
		return
	}
	w := n.window(tx.attempt)
	// Guard rail: past ~60 retries the exponential window would dwarf any
	// useful timescale; saturating it (at MaxBackoffSlots, 256 in PaperConfig)
	// keeps worst-case delay bounded without affecting the common case
	// the paper optimizes.
	if cap := n.cfg.MaxBackoffSlots; w > cap {
		w = cap
	}
	d := int64(math.Ceil(n.nrng[tx.src].Float64() * w))
	if d < 1 {
		d = 1
	}
	base := slot + 2
	if l == LaneData && n.cfg.Opt.RetransmitHints {
		// Losers leave the first reachable slot to the winner.
		base = slot + 3
	}
	tx.retrySlot = base + d - 1
	n.parkRetry(tx, now)
	if n.obs != nil {
		n.observe(obs.KindBackoff, tx, l, now, tx.retrySlot)
	}
}

// window returns the exponential backoff window W*B^(attempt-1) in slots,
// before the cap (a draw below one slot waits one): read from the table New built
// while it reaches, computed the same way past its end, so every window
// has the bits math.Pow gives it. The table is never written after New.
func (n *Network) window(attempt int) float64 {
	if k := attempt - 1; k >= 0 && k < len(n.windows) {
		return n.windows[k]
	}
	return n.cfg.WindowW * math.Pow(n.cfg.BackoffB, float64(attempt-1))
}

// parkRetry puts tx on its sender's retry list and keeps the sender in the busy set until the retry slot comes round.
func (n *Network) parkRetry(tx *transmission, now sim.Cycle) {
	ns := n.nodes[tx.src]
	ns.retries[tx.lane] = append(ns.retries[tx.lane], tx)
	ns.due[tx.lane] = min(ns.due[tx.lane], tx.retrySlot)
	n.join(tx.src, now, false)
}

// takeRetry removes retry i from lane l's list and returns it,
// recomputing the lane's due slot over what is left.
func (ns *nodeState) takeRetry(l Lane, i int) *transmission {
	tx := ns.retries[l][i]
	ns.retries[l] = append(ns.retries[l][:i], ns.retries[l][i+1:]...)
	ns.due[l] = math.MaxInt64
	for _, r := range ns.retries[l] {
		ns.due[l] = min(ns.due[l], r.retrySlot)
	}
	return tx
}

// deliver completes a delivery: latency accounting at the destination,
// the reply-timing estimate, and the upward callback.
func (n *Network) deliver(p *noc.Packet, now sim.Cycle) {
	n.lat[p.Dst].Record(p)
	n.noteReplyArrival(p, now)
	if n.deliverFn != nil {
		n.deliverFn(p, now)
	}
}

// deliverClean completes a successful transmission: payload delivery at
// slot end (plus any steering or degradation pipeline), confirmation at
// +ConfirmDelay. Under fault injection a re-received packet (whose
// earlier confirmation was lost) is recognized by its ID and discarded —
// only the confirmation is re-sent — and a freshly lost confirmation
// parks the sender on the confirmation-timeout retransmission path.
func (n *Network) deliverClean(dst int, tx *transmission, l Lane, slot int64, now sim.Cycle) {
	p := tx.pkt
	st := &n.stats
	extra := tx.steerExtra + tx.degradeExtra
	deliverAt := now + sim.Cycle(extra)
	if tx.delivered {
		st.DuplicateDeliveries++
	} else {
		p.NetworkDelay = n.slotLen[l] + int64(extra)
		if tx.firstSlotEnd != 0 {
			p.ResolutionDelay = int64(now - tx.firstSlotEnd)
		}
		st.Delivered[l]++
		if extra == 0 {
			// Resolution already runs in the destination's tick; with no
			// pipeline extra the delivery lands this very cycle, so it
			// must run inline — an event at `now` would slip a cycle.
			n.deliver(p, now)
		} else {
			n.engine.At(deliverAt, tx.deliverFn)
		}
	}
	lost := n.fault != nil && n.fault.DropConfirm(tx.src, p.Dst, now)
	if !lost && n.adv != nil && n.adv.StarveConfirm(p.Dst, now, n.nrng[dst]) {
		// A starver suppresses the victim's confirmation beam; to the
		// sender this is indistinguishable from a physical confirm loss.
		lost = true
		st.StarvedConfirms++
	}
	if lost {
		// The payload landed but the sender will never hear so: after the
		// confirmation timeout it retransmits; the receiver discards the
		// duplicate above and re-confirms. The requeue rides the same
		// +ConfirmDelay handback as a failure.
		st.ConfirmDrops++
		st.TimeoutRetransmits++
		tx.delivered = true
		tx.attempt++
		p.Retries++
		tx.winner = false
		tx.retrySlot = slot + int64(n.cfg.ConfirmTimeoutSlots)
		if n.obs != nil {
			n.observe(obs.KindConfirmDrop, tx, l, now, tx.retrySlot)
		}
		n.engine.At(now+sim.Cycle(n.cfg.ConfirmDelay), tx.requeueFn)
		return
	}
	st.ConfirmSignals++
	// The receipt confirmation occupies the receiver node's confirmation
	// lane; its header-sized payload is a handful of mini-cycles.
	confExtra := n.conf.sendDelay(p.Dst, deliverAt, 4)
	// The confirmation informs the sender, at least ConfirmDelay ahead.
	n.engine.At(deliverAt+sim.Cycle(n.cfg.ConfirmDelay)+confExtra, tx.confirmFn)
}

// noteReplyArrival updates the requester's reply-latency estimate used by
// receiver scheduling.
func (n *Network) noteReplyArrival(p *noc.Packet, now sim.Cycle) {
	if !p.IsReply {
		return
	}
	ns := n.nodes[p.Dst]
	if sent, ok := ns.expecting.pop(p.Src); ok {
		ns.replyEWMA = 0.875*ns.replyEWMA + 0.125*float64(now-sent)
	}
}
