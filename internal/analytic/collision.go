// Package analytic implements the paper's closed-form and Monte Carlo
// models: the §4.3.2 collision-probability expression (Figure 3), the
// bandwidth-allocation latency model (the C1..C4 expression whose optimum
// sets the meta-lane share to ~0.285), and the exponential-backoff
// collision-resolution-delay model behind Figure 4.
//
// These models exist so that early design decisions can be made without
// "blindly relying on expensive simulations" (§4.3.2); the simulator
// cross-validates them in the experiment suite.
package analytic

import (
	"fmt"
	"math"

	"fsoi/internal/parallel"
	"fsoi/internal/sim"
)

// mcShards is the fixed shard count for all Monte Carlo estimators in
// this package. Trials are dealt across mcShards independent named RNG
// sub-streams and the partial results reduced in shard order, so an
// estimate is a pure function of (seed, trials) — the worker count only
// decides how many shards run concurrently, never what they compute.
const mcShards = 16

// shardCounts deals trials across the fixed shard count, earlier shards
// absorbing the remainder. Fewer trials than shards degenerate to one
// trial per shard.
func shardCounts(trials int) []int {
	n := mcShards
	if n > trials {
		n = trials
	}
	if n < 1 {
		n = 1
	}
	counts := make([]int, n)
	base, rem := trials/n, trials%n
	for i := range counts {
		counts[i] = base
		if i < rem {
			counts[i]++
		}
	}
	return counts
}

// shardNames names the shards' sub-streams "shard/0", "shard/1", ...,
// made once rather than formatted anew for every estimate.
var shardNames = func() (names [mcShards]string) {
	for i := range names {
		names[i] = fmt.Sprintf("shard/%d", i)
	}
	return names
}()

// shardStreams derives one named sub-stream per shard, serially and in
// shard order, so the stream genealogy is independent of worker count.
func shardStreams(rng *sim.RNG, n int) []*sim.RNG {
	streams := make([]*sim.RNG, n)
	for i := range streams {
		streams[i] = rng.NewStream(shardNames[i])
	}
	return streams
}

// CollisionParams describes the simplified transmission model of §4.3.2:
// every one of N nodes transmits with probability p per slot to a uniform
// random destination; each node owns R receivers and the N-1 potential
// senders are divided evenly among them.
type CollisionParams struct {
	N int     // number of nodes
	R int     // receivers per node per lane
	P float64 // per-node transmission probability per slot
}

// sendersPerReceiver returns n = (N-1)/R as a real number; the paper's
// formula treats it continuously for non-divisible R.
func (c CollisionParams) sendersPerReceiver() float64 {
	return float64(c.N-1) / float64(c.R)
}

// q is the probability that one particular sender targets one particular
// receiver in a slot: transmit (p) and pick that destination (1/(N-1)).
func (c CollisionParams) q() float64 {
	return c.P / float64(c.N-1)
}

// NodeCollisionProbability evaluates the paper's displayed expression:
// the probability that at least one of a node's R receivers sees two or
// more simultaneous packets in a slot,
//
//	1 - [ (1-q)^n + n*q*(1-q)^(n-1) ]^R,  q = p/(N-1), n = (N-1)/R.
func NodeCollisionProbability(c CollisionParams) float64 {
	n := c.sendersPerReceiver()
	if n <= 1 {
		return 0 // at most one sender per receiver: collisions impossible
	}
	q := c.q()
	clean := math.Pow(1-q, n) + n*q*math.Pow(1-q, n-1)
	return 1 - math.Pow(clean, float64(c.R))
}

// PacketCollisionProbability is the per-transmitted-packet collision
// probability — the quantity Figure 3 plots ("normalized to packet
// transmission probability"). A transmitted packet collides when any of
// the other n-1 senders sharing its receiver also targets it:
//
//	Pc = 1 - (1-q)^(n-1).
//
// To first order Pc is inversely proportional to R, the diminishing-
// returns observation of §4.3.2.
func PacketCollisionProbability(c CollisionParams) float64 {
	n := c.sendersPerReceiver()
	if n <= 1 {
		return 0 // a dedicated receiver per sender never collides
	}
	q := c.q()
	return 1 - math.Pow(1-q, n-1)
}

// TwoReceiverRetransmitCollision is footnote 4's expression for the
// collision probability of a retransmitted packet in a 2-receiver design
// given background transmission probability pt:
//
//	Pt * (1 - (1 - pt/(N-1))^((N-2)/2)) ≈ pt/2 - pt²/8 + ...
//
// It returns the exact form.
func TwoReceiverRetransmitCollision(n int, pt float64) float64 {
	return 1 - math.Pow(1-pt/float64(n-1), float64(n-2)/2)
}

// collisionTally holds one shard's raw counts.
type collisionTally struct {
	sent, collided, nodeSlots, nodeCollisions int
}

// MonteCarloCollision estimates the same two quantities by direct
// simulation of the slotted model: trials slots, each node transmitting
// independently. It returns the per-packet and per-node collision
// probabilities, validating the closed forms. Trials are sharded across
// fixed named sub-streams of rng and run on up to workers goroutines;
// the estimate is identical at every worker count.
func MonteCarloCollision(c CollisionParams, rng *sim.RNG, trials, workers int) (perPacket, perNode float64) {
	if c.N < 2 || c.R < 1 {
		panic("analytic: need N >= 2 and R >= 1")
	}
	if trials <= 0 {
		panic("analytic: trials must be positive")
	}
	counts := shardCounts(trials)
	streams := shardStreams(rng, len(counts))
	shards := parallel.Map(len(counts), workers, func(i int) collisionTally {
		return collisionShard(c, streams[i], counts[i])
	})
	var total collisionTally
	for _, sh := range shards { // reduce in shard order
		total.sent += sh.sent
		total.collided += sh.collided
		total.nodeSlots += sh.nodeSlots
		total.nodeCollisions += sh.nodeCollisions
	}
	if total.sent > 0 {
		perPacket = float64(total.collided) / float64(total.sent)
	}
	// perNode is the probability that a given node experiences >=1
	// receiver collision in a slot, averaged over nodes and slots.
	perNode = float64(total.nodeCollisions) / float64(total.nodeSlots)
	return perPacket, perNode
}

// collisionShard runs one shard's slots on its own stream. The draws
// are Bool(P) for each node in node order, then Intn(N-1) for a node
// that transmits; the tally is a pure function of that sequence.
//
// Most nodes stay silent, so the loop is shaped for them. It draws from
// the stream's state copied into locals (DESIGN section 8, "Monte Carlo
// kernels"), tests Bool(P) as an integer threshold, steps node s's
// receiver s % R as a counter, and keeps nothing else in registers: what
// a sender needs lives in slotCells, behind one call. The state is
// written back once, at the end.
func collisionShard(c CollisionParams, rng *sim.RNG, trials int) collisionTally {
	k := slotCells{
		count:   make([]int32, c.N*c.R),
		touched: make([]int32, 0, c.N),
		hitSlot: make([]int, c.N),
		r:       c.R,
		others:  uint64(c.N - 1),
	}
	transmits := sim.NewThreshold(c.P)
	st := rng.State()
	for k.slot = 1; k.slot <= trials; k.slot++ {
		k.clear()
		rcv := 0
		for s := 0; s < c.N; s, rcv = s+1, rcv+1 {
			if rcv == c.R {
				rcv = 0
			}
			var x uint64
			if st, x = st.Next(); transmits.Bool(x) {
				st, x = st.Next()
				k.send(s, rcv, x)
			}
		}
	}
	rng.SetState(st)
	k.tally.nodeSlots = trials * c.N
	return k.tally
}

// slotCells counts one shard's senders per (dst, receiver) cell in one
// dense array and tallies a cell as its senders arrive: the second makes
// it a collision of two packets (and, once per destination per slot, a
// node collision), each later one adds a packet. The cells a slot touched
// are listed so that the next slot clears only them; a slot costs its
// senders and allocates nothing.
type slotCells struct {
	count   []int32 // senders this slot at cell dst*R + receiver
	touched []int32 // cells with count > 0 this slot
	hitSlot []int   // last slot in which the node saw a collision
	r       int     // receivers per node
	others  uint64  // N-1, the destinations a sender draws from
	slot    int     // the current slot, counted from 1
	tally   collisionTally
}

// clear empties the cells the last slot touched.
func (k *slotCells) clear() {
	for _, cell := range k.touched {
		k.count[cell] = 0
	}
	k.touched = k.touched[:0]
}

// send files node s's packet, on its receiver rcv, at the destination
// the draw x picks as Intn(N-1) picks it.
func (k *slotCells) send(s, rcv int, x uint64) {
	d := int(x % k.others)
	if d >= s {
		d++
	}
	k.tally.sent++
	cell := d*k.r + rcv
	switch k.count[cell]++; k.count[cell] {
	case 1:
		k.touched = append(k.touched, int32(cell))
	case 2:
		k.tally.collided += 2
		if k.hitSlot[d] != k.slot {
			k.hitSlot[d] = k.slot
			k.tally.nodeCollisions++
		}
	default:
		k.tally.collided++
	}
}
