// Package corona models the family of waveguide-based optical crossbars
// the FSOI design is compared against: the Corona-style token crossbar
// (Vantrease et al., ISCA 2008) of §7.1, plus the matrix/λ-router and
// snake/SWMR WDM variants of the comparative study in arXiv:1512.07492.
// All three share one event machinery — per-channel FIFOs with
// serialization and flight delay — and differ only in how packets map
// onto channels and how senders acquire one:
//
//   - ArbToken (Corona): every destination owns a WDM channel on a
//     shared waveguide; senders arbitrate with an optical token that
//     circulates at light speed. No packet switching, no collisions —
//     the cost is the token wait plus channel serialization.
//   - ArbWavelength (matrix/λ-router): every (src, dst) pair owns a
//     dedicated wavelength route through the ring matrix, so the fabric
//     is fully non-blocking; only the channel's own serialization
//     limits it. The price is paid in the physical layer (n² rings and
//     the worst-case crossing loss internal/optics/losses.go budgets).
//   - ArbSourceOwned (snake/SWMR): every source owns one broadcast
//     channel that snakes past all readers, so a source's packets
//     serialize regardless of destination. The price is the 1:n
//     broadcast split loss in the physical layer.
//
// The paper reports FSOI about 1.06x faster than a corona-style design
// in the 64-way system; the token model captures the arbitration
// latency that drives the gap, and the WDM variants bound it from the
// contention-free side.
package corona

import (
	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
)

// Arbitration selects how senders acquire a channel — the resource the
// crossbar serializes on.
type Arbitration int

// Crossbar arbitration modes.
const (
	// ArbToken is the Corona MWSR crossbar: one channel per destination,
	// writers arbitrate with a circulating optical token.
	ArbToken Arbitration = iota
	// ArbWavelength is the matrix/λ-router crossbar: one dedicated
	// channel per (src, dst) pair, contention-free.
	ArbWavelength
	// ArbSourceOwned is the snake/SWMR crossbar: one broadcast channel
	// per source; its packets serialize regardless of destination.
	ArbSourceOwned
)

// Config parameterizes the crossbar.
type Config struct {
	Nodes int
	// Arb selects the channel topology and arbitration model.
	Arb Arbitration
	// TokenRoundTrip is the time for a channel's token to circulate the
	// full ring, in core cycles (Corona's waveguide loops the die).
	// Used only under ArbToken.
	TokenRoundTrip float64
	// MetaCycles / DataCycles are the channel serialization times.
	MetaCycles int
	DataCycles int
	// FlightCycles is the propagation delay after grant.
	FlightCycles int
	InjectQueue  int
}

// PaperCorona returns a 64-node token-crossbar configuration with
// bandwidth comparable to the FSOI lanes.
func PaperCorona(nodes int) Config {
	return Config{
		Nodes:          nodes,
		Arb:            ArbToken,
		TokenRoundTrip: 8,
		MetaCycles:     2,
		DataCycles:     5,
		FlightCycles:   1,
		InjectQueue:    16,
	}
}

// MatrixCrossbar returns the matrix/λ-router variant: same serialization
// and flight budget as the token crossbar, but fully non-blocking.
func MatrixCrossbar(nodes int) Config {
	c := PaperCorona(nodes)
	c.Arb = ArbWavelength
	return c
}

// SnakeCrossbar returns the snake/SWMR variant: same serialization and
// flight budget, one broadcast channel per source.
func SnakeCrossbar(nodes int) Config {
	c := PaperCorona(nodes)
	c.Arb = ArbSourceOwned
	return c
}

// channels returns how many independent channels the arbitration mode
// provides.
func (c Config) channels() int {
	if c.Arb == ArbWavelength {
		return c.Nodes * c.Nodes
	}
	return c.Nodes
}

// channelOf maps a packet onto its serializing channel.
func (c Config) channelOf(p *noc.Packet) int {
	switch c.Arb {
	case ArbWavelength:
		return p.Src*c.Nodes + p.Dst
	case ArbSourceOwned:
		return p.Src
	}
	return p.Dst
}

// channel is the per-channel shared medium.
type channel struct {
	waiting  []*noc.Packet // FIFO per requesting order
	busyTill sim.Cycle
	armed    bool // a grant event is scheduled
}

// Network is the event-driven crossbar.
type Network struct {
	cfg       Config
	engine    *sim.Engine
	deliverFn noc.DeliveryFunc
	lat       noc.LatencyStats
	channels  []*channel
	queued    []int         // per-node injected count (for queue bound)
	obs       *obs.Recorder // nil unless lifecycle tracing is on
	// TokenGrants counts the token grants and TokenWaitCycles the cycles
	// they waited for the token, each wait rounded up to the cycle of its
	// grant (ArbToken only; the WDM variants never wait for a grant).
	TokenGrants, TokenWaitCycles int64
}

// New builds the crossbar.
func New(cfg Config, engine *sim.Engine) *Network {
	n := &Network{cfg: cfg, engine: engine}
	n.channels = make([]*channel, cfg.channels())
	for i := range n.channels {
		n.channels[i] = &channel{}
	}
	n.queued = make([]int, cfg.Nodes)
	return n
}

// LatencyStats exposes accumulated measurements.
func (n *Network) LatencyStats() *noc.LatencyStats { return &n.lat }

// Lookahead is the finish-notice delay the system layer uses on the
// crossbars (noc.Lookaheader): a delivery is never sooner than the
// shortest serialization plus ring flight.
func (n *Network) Lookahead() sim.Cycle {
	la := sim.Cycle(n.cfg.MetaCycles + n.cfg.FlightCycles)
	if la < 1 {
		return 1
	}
	return la
}

// SetDelivery installs the destination callback.
func (n *Network) SetDelivery(fn noc.DeliveryFunc) { n.deliverFn = fn }

// SetObserver attaches a lifecycle-event recorder. The crossbars emit
// tx-start events when a packet's serialization begins (injection and
// delivery come from the system layer); with no recorder attached every
// emission site is a single nil check.
func (n *Network) SetObserver(r *obs.Recorder) { n.obs = r }

// tokenRate returns token positions advanced per cycle.
func (n *Network) tokenRate() float64 {
	return float64(n.cfg.Nodes) / n.cfg.TokenRoundTrip
}

// tokenWait returns the cycles until the token of channel dst reaches
// node src, at or after cycle t.
func (n *Network) tokenWait(src, dst int, t sim.Cycle) float64 {
	rate := n.tokenRate()
	pos := float64(t) * rate
	cur := int(pos) % n.cfg.Nodes
	dist := (src - cur + n.cfg.Nodes) % n.cfg.Nodes
	return float64(dist) / rate
}

// Send enqueues a packet; arbitration is event-driven per channel.
func (n *Network) Send(p *noc.Packet) bool {
	if n.queued[p.Src] >= n.cfg.InjectQueue {
		return false
	}
	n.queued[p.Src]++
	p.Created = n.engine.Now()
	ch := n.channels[n.cfg.channelOf(p)]
	ch.waiting = append(ch.waiting, p)
	n.arm(ch)
	return true
}

// arm schedules the next grant on the channel if not already pending.
func (n *Network) arm(ch *channel) {
	if ch.armed || len(ch.waiting) == 0 {
		return
	}
	now := n.engine.Now()
	start := ch.busyTill
	if start < now {
		start = now
	}
	p := ch.waiting[0]
	grant := start
	if n.cfg.Arb == ArbToken {
		// The oldest waiter grabs the token when it next passes its
		// station; the WDM variants own their channel outright.
		grant += sim.Cycle(n.tokenWait(p.Src, p.Dst, start) + 0.9999)
		n.TokenGrants++
		n.TokenWaitCycles += int64(grant - start)
	}
	ch.armed = true
	n.engine.At(grant, func(at sim.Cycle) {
		ch.armed = false
		n.grant(ch, at)
	})
}

// grant transmits the head packet on the channel.
func (n *Network) grant(ch *channel, now sim.Cycle) {
	if len(ch.waiting) == 0 {
		return
	}
	p := ch.waiting[0]
	ch.waiting = ch.waiting[1:]
	ser := n.cfg.MetaCycles
	if p.Type == noc.Data {
		ser = n.cfg.DataCycles
	}
	ch.busyTill = now + sim.Cycle(ser)
	p.QueuingDelay = int64(now - p.Created)
	p.NetworkDelay = int64(ser + n.cfg.FlightCycles)
	if n.obs != nil {
		n.obs.Emit(obs.Event{
			At: now, Kind: obs.KindTxStart, ID: p.ID,
			Src: int32(p.Src), Dst: int32(p.Dst),
			Class: uint8(p.Type), Lane: int8(p.Type),
		})
	}
	done := ch.busyTill + sim.Cycle(n.cfg.FlightCycles)
	n.queued[p.Src]--
	n.engine.At(done, func(at sim.Cycle) {
		n.lat.Record(p)
		if n.deliverFn != nil {
			n.deliverFn(p, at)
		}
	})
	n.arm(ch)
}

// Tick is a no-op; the crossbar is fully event-driven.
func (n *Network) Tick(now sim.Cycle) {}
