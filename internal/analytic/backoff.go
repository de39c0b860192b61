package analytic

import (
	"math"
	"slices"

	"fsoi/internal/parallel"
	"fsoi/internal/sim"
)

// BackoffModel is the slot-level model behind Figure 4: senders whose
// packets collided retry in a uniformly random slot inside a window that
// grows exponentially with the retry count,
//
//	W_r = W * B^(r-1),
//
// while the rest of the system keeps transmitting at a background rate G
// that can cause secondary collisions and inject new contenders.
type BackoffModel struct {
	W          float64 // starting window, in slots (may be fractional, e.g. 2.7)
	B          float64 // exponential base (>= 1; the paper argues for a gentle base over the classic 2)
	G          float64 // background transmission probability per slot on this receiver
	SlotCycles int     // processor cycles per slot (2 for meta packets)
	DetectSlot int     // slots from end of a collided slot until the sender learns of it
}

// PaperBackoff returns the meta-lane configuration evaluated in §4.3.2:
// W=2.7, B=1.1, 2-cycle slots. The confirmation laser fires two cycles
// after a clean receipt, so its absence is known within the first backoff
// wait slot; DetectSlot is therefore 0 and detection overlaps the wait.
func PaperBackoff(g float64) BackoffModel {
	return BackoffModel{W: 2.7, B: 1.1, G: g, SlotCycles: 2, DetectSlot: 0}
}

// window returns the retry window, in slots, for the r-th retry (r >= 1).
func (m BackoffModel) window(r int) float64 {
	w := m.W * math.Pow(m.B, float64(r-1))
	if w < 1 {
		w = 1
	}
	return w
}

// contender is one packet working through backoff.
type contender struct {
	next  int // slot of its next attempt; read back only for a contender parked in far
	retry int // number of retries performed so far
	born  int // slot whose collision created this contender
}

// ringSlots is the span of an episodeRunner's ring, and bucketCap what
// each bucket holds before it grows on its own. In the stable part of the
// Figure 4 grid a wait is a few slots and a bucket holds one or two
// packets; only the unstable corner (small W, B near 1, G = 10%), a
// doubling base and the 64-node burst reach past either.
const (
	ringSlots = 256
	bucketCap = 8
)

// episodeRunner plays the episodes of one model. It owns everything an
// episode needs (contender slab, window table, schedule) and keeps it
// between episodes, so a shard of episodes allocates once; and it files
// each contender under the slot it will transmit in, so a slot costs its
// transmitters rather than a scan of everyone still backing off.
//
// The draws an episode makes, in order, are its contract (DESIGN section
// 8, "Monte Carlo kernels"): one wait per initial collider; then per
// slot, while any contender is undelivered, one Bool(G) once the slot's
// transmitters are known (none when there is no background traffic to
// model), one wait per collided transmitter in creation order, and last
// the wait of the background packet that joined the collision.
type episodeRunner struct {
	m       BackoffModel
	windows []float64          // windows[r-1] == m.window(r), filled on demand
	cs      []contender        // this episode's contenders, indexed in creation order
	live    int                // contenders not yet delivered, scheduled or not
	ring    [ringSlots][]int32 // ring[s%ringSlots]: ids transmitting in slot s, s under ringSlots ahead
	far     []int32            // ids transmitting ringSlots or more ahead
}

// newEpisodeRunner sizes the runner for a stable cell's episodes (a few
// contenders, a dozen retries), which then never allocate; anything
// larger grows what it needs once and keeps it.
func newEpisodeRunner(m BackoffModel) *episodeRunner {
	r := &episodeRunner{m: m, windows: make([]float64, 0, 32), cs: make([]contender, 0, 16)}
	backing := make([]int32, ringSlots*bucketCap)
	for i := range r.ring {
		r.ring[i] = backing[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return r
}

// wait turns the draw x into the wait of the given retry: a continuous
// point in (0, W_r] rounded up to a whole slot, so a window of 2.7 picks
// slot 3 with probability 0.7/2.7. The draw itself is the caller's, made
// on its local copy of the state (DESIGN section 8, "Monte Carlo
// kernels"). The table holds m.window(r) itself: a running product
// w *= B rounds differently from W * Pow(B, r-1) and would move the
// estimates.
func (r *episodeRunner) wait(x uint64, retry int) int {
	for len(r.windows) < retry {
		r.windows = append(r.windows, r.m.window(len(r.windows)+1))
	}
	return int(math.Ceil(sim.Unit(x) * r.windows[retry-1]))
}

// schedule files contender id, at slot now, to transmit in slot next. A
// slot that is not ahead of now (a wait that drew exactly 0 with no
// detection delay) or is past maxSlots never comes: the contender stays
// live, in no list, and keeps the episode running to its horizon.
func (r *episodeRunner) schedule(id int32, now, next, maxSlots int) {
	switch {
	case next <= now || next > maxSlots:
	case next-now < ringSlots:
		r.ring[next%ringSlots] = append(r.ring[next%ringSlots], id)
	default:
		r.cs[id].next = next
		r.far = append(r.far, id)
	}
}

// pullFar moves what has come within the ring's span into it. play calls
// it at every slot that is a multiple of ringSlots, before reading that
// slot's bucket: an id parked at slot s for slot t >= s+ringSlots meets
// such a slot in (s, t], by which time t is under ringSlots ahead.
func (r *episodeRunner) pullFar(now int) {
	keep := r.far[:0]
	for _, id := range r.far {
		if next := r.cs[id].next; next-now < ringSlots {
			r.ring[next%ringSlots] = append(r.ring[next%ringSlots], id)
		} else {
			keep = append(keep, id)
		}
	}
	r.far = keep
}

// admit creates the contender born of a collision in slot born and
// schedules its first retry, drawing its wait from st.
func (r *episodeRunner) admit(st sim.State, born, maxSlots int) sim.State {
	id := int32(len(r.cs))
	r.cs = append(r.cs, contender{retry: 1, born: born})
	r.live++
	st, x := st.Next()
	r.schedule(id, born, born+r.m.DetectSlot+r.wait(x, 1), maxSlots)
	return st
}

// play simulates one collision episode with k initial colliders on rng
// and returns the summed per-packet resolution delay in cycles, the
// number of packets resolved within maxSlots, and the slot and retry
// count of the last delivery. With burst set it is Pathological's
// all-to-one burst instead: no background traffic is modelled (G is not
// drawn) and the episode ends at the first clean delivery. The draws are
// made on rng's state copied into a local, Bool(G) as the integer
// threshold test, and the state is written back when the episode ends.
func (r *episodeRunner) play(rng *sim.RNG, k, maxSlots int, burst bool) (totalCycles float64, resolved, lastSlot, lastRetry int) {
	if r.live > 0 { // the previous episode ended with contenders still filed
		for i := range r.ring {
			r.ring[i] = r.ring[i][:0]
		}
		r.far = r.far[:0]
	}
	r.cs, r.live = r.cs[:0], 0
	st := rng.State()
	for i := 0; i < k; i++ {
		st = r.admit(st, 0, maxSlots)
	}
	background := sim.NewThreshold(r.m.G)
	for slot := 1; slot <= maxSlots && r.live > 0; slot++ {
		if slot%ringSlots == 0 {
			r.pullFar(slot)
		}
		// A bucket gathers ids filed in several earlier slots; sorting
		// puts them back in creation order, the order of the redraws.
		txs := r.ring[slot%ringSlots]
		r.ring[slot%ringSlots] = txs[:0] // nothing files into the current slot
		if len(txs) > 1 {
			slices.Sort(txs)
		}
		joined := false // a background packet transmits in this slot
		if !burst {
			var x uint64
			st, x = st.Next()
			joined = background.Bool(x)
		}
		switch {
		case len(txs) == 1 && !joined:
			// Clean delivery: measure from end of the birth slot to the
			// end of this slot.
			c := r.cs[txs[0]]
			totalCycles += float64((slot - c.born) * r.m.SlotCycles)
			resolved++
			r.live--
			lastSlot, lastRetry = slot, c.retry
			if burst {
				rng.SetState(st)
				return totalCycles, resolved, lastSlot, lastRetry
			}
		case len(txs) > 0:
			// Collision (with each other and/or background). Everyone
			// transmitting backs off again; a colliding background packet
			// becomes a new contender.
			for _, id := range txs {
				c := &r.cs[id]
				c.retry++
				var x uint64
				st, x = st.Next()
				r.schedule(id, slot, slot+r.m.DetectSlot+r.wait(x, c.retry), maxSlots)
			}
			if joined {
				st = r.admit(st, slot, maxSlots)
			}
		}
	}
	rng.SetState(st)
	return totalCycles, resolved, lastSlot, lastRetry
}

// delayTally holds one shard's partial sums.
type delayTally struct {
	total    float64 // summed resolution delay, cycles
	resolved int     // packets that delay is summed over
}

// delayShard plays one shard's episodes on its own stream, all on one
// runner.
func (m BackoffModel) delayShard(rng *sim.RNG, trials int) delayTally {
	run := newEpisodeRunner(m)
	var p delayTally
	for t := 0; t < trials; t++ {
		d, n, _, _ := run.play(rng, 2, 1<<14, false)
		p.total += d
		p.resolved += n
	}
	return p
}

// MeanResolutionDelay estimates, by Monte Carlo over trials independent
// collision episodes, the average collision-resolution delay in processor
// cycles: the time from the end of the originally collided slot until the
// end of the slot in which the packet finally goes through. Each episode
// starts with two packets colliding (the overwhelmingly common case) on
// one receiver. Episodes are sharded across fixed named sub-streams of
// rng and run on up to workers goroutines; partial sums reduce in shard
// order, so the float result is identical at every worker count.
func (m BackoffModel) MeanResolutionDelay(rng *sim.RNG, trials, workers int) float64 {
	if trials <= 0 {
		panic("analytic: trials must be positive")
	}
	counts := shardCounts(trials)
	streams := shardStreams(rng, len(counts))
	parts := parallel.Map(len(counts), workers, func(i int) delayTally {
		return m.delayShard(streams[i], counts[i])
	})
	total := 0.0
	resolved := 0
	for _, p := range parts { // fixed shard order keeps float addition stable
		total += p.total
		resolved += p.resolved
	}
	if resolved == 0 {
		return math.Inf(1)
	}
	return total / float64(resolved)
}

// ResolutionDelaySurface evaluates MeanResolutionDelay over a (W, B) grid,
// reproducing the Figure 4 surface. The rng is re-derived per grid point
// — serially, in row-major order, before any point runs — so the surface
// is smooth under a common random-number stream and independent of how
// many workers evaluate grid points concurrently. The grid is the
// parallel axis; each point's estimator runs serially on its own stream.
func ResolutionDelaySurface(ws, bs []float64, g float64, rng *sim.RNG, trials, workers int) [][]float64 {
	streams := make([]*sim.RNG, len(ws)*len(bs))
	for i := range streams {
		streams[i] = rng.NewStream("surface")
	}
	flat := parallel.Map(len(streams), workers, func(idx int) float64 {
		m := PaperBackoff(g)
		m.W, m.B = ws[idx/len(bs)], bs[idx%len(bs)]
		return m.MeanResolutionDelay(streams[idx], trials, 1)
	})
	out := make([][]float64, len(ws))
	for i := range ws {
		out[i] = flat[i*len(bs) : (i+1)*len(bs)]
	}
	return out
}

// OptimalWB scans a grid and returns the (W, B) with the lowest mean
// resolution delay; with the paper's parameters the optimum falls near
// the paper's own choice (claims fig4.w and fig4.b in internal/exp).
func OptimalWB(ws, bs []float64, g float64, rng *sim.RNG, trials, workers int) (bestW, bestB, bestDelay float64) {
	surface := ResolutionDelaySurface(ws, bs, g, rng, trials, workers)
	bestDelay = math.Inf(1)
	for i, w := range ws {
		for j, b := range bs {
			if surface[i][j] < bestDelay {
				bestDelay, bestW, bestB = surface[i][j], w, b
			}
		}
	}
	return bestW, bestB, bestDelay
}

// PathologicalResult reports the §4.3.2 worst case: in an N-node system
// every other node sends one packet to the same target nearly
// simultaneously.
type PathologicalResult struct {
	MeanRetriesFirst float64 // retries until the first packet gets through
	MeanCyclesFirst  float64 // cycles until the first clean delivery
	Resolved         bool    // whether any packet succeeded within the horizon
}

// Pathological simulates the all-to-one burst with nodes-1 simultaneous
// senders split across receivers receivers, and reports how long the first
// clean delivery takes. A fixed window (B=1) with small W may effectively
// never resolve; the horizon caps the search. Each trial already runs on
// its own derived stream, so trials parallelize across workers with the
// reduction in trial order — numerically identical to the serial loop.
func (m BackoffModel) Pathological(rng *sim.RNG, nodes, receivers, trials, horizonSlots, workers int) PathologicalResult {
	var sumRetries, sumCycles float64
	succeeded := 0
	perReceiver := (nodes - 1 + receivers - 1) / receivers
	subs := make([]*sim.RNG, trials)
	for i := range subs {
		subs[i] = rng.NewStream("patho")
	}
	type outcome struct {
		slots, retries int
		ok             bool
	}
	outcomes := parallel.Map(trials, workers, func(t int) outcome {
		_, delivered, slots, retries := newEpisodeRunner(m).play(subs[t], perReceiver, horizonSlots, true)
		return outcome{slots, retries, delivered == 1}
	})
	for _, o := range outcomes { // trial order keeps float addition stable
		if o.ok {
			succeeded++
			sumRetries += float64(o.retries)
			sumCycles += float64(o.slots * m.SlotCycles)
		}
	}
	if succeeded == 0 {
		return PathologicalResult{Resolved: false}
	}
	return PathologicalResult{
		MeanRetriesFirst: sumRetries / float64(succeeded),
		MeanCyclesFirst:  sumCycles / float64(succeeded),
		Resolved:         true,
	}
}
