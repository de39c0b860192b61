package analytic

import (
	"fmt"
	"math"
	"testing"

	"fsoi/internal/sim"
)

// refCollisionShard is the map-based collision kernel exactly as it stood
// before the dense one replaced it. It lives here only as the reference
// the tallies are compared with.
func refCollisionShard(c CollisionParams, rng *sim.RNG, trials int) collisionTally {
	var sent, collided, nodeSlots, nodeCollisions int
	// receiverOf maps a sender to the receiver index it uses at any
	// destination: senders are statically divided among receivers.
	load := make(map[[2]int][]int) // (dst, receiver) -> senders this slot
	for t := 0; t < trials; t++ {
		for k := range load {
			delete(load, k)
		}
		type tx struct{ src, dst, rcv int }
		var txs []tx
		for s := 0; s < c.N; s++ {
			if !rng.Bool(c.P) {
				continue
			}
			d := rng.Intn(c.N - 1)
			if d >= s {
				d++
			}
			r := s % c.R
			txs = append(txs, tx{s, d, r})
			key := [2]int{d, r}
			load[key] = append(load[key], s)
		}
		sent += len(txs)
		for _, x := range txs {
			if len(load[[2]int{x.dst, x.rcv}]) > 1 {
				collided++
			}
		}
		nodeSlots += c.N
		seen := make(map[int]bool)
		for key, senders := range load {
			if len(senders) > 1 && !seen[key[0]] {
				seen[key[0]] = true
				nodeCollisions++
			}
		}
	}
	return collisionTally{sent, collided, nodeSlots, nodeCollisions}
}

// refDrawWait, refContender, refEpisode, refRemove and refFirstSuccess are
// the pointer-and-linear-scan backoff kernels, kept verbatim for the same
// purpose: every draw they make, in the order they make it, is what
// episodeRunner.play must reproduce.
func (m BackoffModel) refDrawWait(rng *sim.RNG, retry int) int {
	w := m.window(retry)
	return int(math.Ceil(rng.Float64() * w))
}

type refContender struct {
	nextTx int // slot index of the next transmission attempt
	retry  int // number of retries performed so far
	born   int // slot whose collision created this contender
}

func (m BackoffModel) refEpisode(rng *sim.RNG, k, maxSlots int) (totalCycles float64, resolved int) {
	var active []*refContender
	for i := 0; i < k; i++ {
		c := &refContender{born: 0, retry: 1}
		c.nextTx = m.DetectSlot + m.refDrawWait(rng, 1)
		active = append(active, c)
	}
	for slot := 1; slot <= maxSlots && len(active) > 0; slot++ {
		var txs []*refContender
		for _, c := range active {
			if c.nextTx == slot {
				txs = append(txs, c)
			}
		}
		background := rng.Bool(m.G)
		switch {
		case len(txs) == 1 && !background:
			// Clean delivery: measure from end of the birth slot to the
			// end of this slot.
			c := txs[0]
			totalCycles += float64((slot - c.born) * m.SlotCycles)
			resolved++
			active = refRemove(active, c)
		case len(txs) > 0:
			// Collision (with each other and/or background). Everyone
			// transmitting backs off again; a colliding background packet
			// becomes a new contender.
			for _, c := range txs {
				c.retry++
				c.nextTx = slot + m.DetectSlot + m.refDrawWait(rng, c.retry)
			}
			if background {
				nc := &refContender{born: slot, retry: 1}
				nc.nextTx = slot + m.DetectSlot + m.refDrawWait(rng, 1)
				active = append(active, nc)
			}
		}
	}
	return totalCycles, resolved
}

func refRemove(cs []*refContender, target *refContender) []*refContender {
	out := cs[:0]
	for _, c := range cs {
		if c != target {
			out = append(out, c)
		}
	}
	return out
}

func (m BackoffModel) refFirstSuccess(rng *sim.RNG, k, horizon int) (slots, retries int, ok bool) {
	active := make([]*refContender, k)
	for i := range active {
		c := &refContender{retry: 1}
		c.nextTx = m.DetectSlot + m.refDrawWait(rng, 1)
		active[i] = c
	}
	for slot := 1; slot <= horizon; slot++ {
		var txs []*refContender
		for _, c := range active {
			if c.nextTx == slot {
				txs = append(txs, c)
			}
		}
		if len(txs) == 1 {
			return slot, txs[0].retry, true
		}
		for _, c := range txs {
			c.retry++
			c.nextTx = slot + m.DetectSlot + m.refDrawWait(rng, c.retry)
		}
	}
	return 0, 0, false
}

// checkCollision runs both collision kernels from the same seed and
// compares the tallies and the state the generators are left in.
func checkCollision(t *testing.T, c CollisionParams, seed uint64, trials int) {
	t.Helper()
	got, want := sim.NewRNG(seed), sim.NewRNG(seed)
	if g, w := collisionShard(c, got, trials), refCollisionShard(c, want, trials); g != w {
		t.Fatalf("%+v seed %d trials %d: tally %+v, reference %+v", c, seed, trials, g, w)
	}
	if got.Uint64() != want.Uint64() {
		t.Fatalf("%+v seed %d trials %d: generators diverge after the shard", c, seed, trials)
	}
}

func TestCollisionShardMatchesReference(t *testing.T) {
	seed := uint64(1)
	for _, n := range []int{2, 3, 16, 64} {
		for _, r := range []int{1, 2, 3, n - 1} {
			for _, p := range []float64{0, 0.01, 0.33, 1} {
				checkCollision(t, CollisionParams{N: n, R: r, P: p}, seed, 400)
				seed++
			}
		}
	}
}

func FuzzCollisionMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(14), uint8(1), 0.1, uint16(300))
	f.Add(uint64(2), uint8(0), uint8(0), 1.0, uint16(50))
	f.Add(uint64(3), uint8(62), uint8(62), 0.33, uint16(100))
	f.Fuzz(func(t *testing.T, seed uint64, n, r uint8, p float64, trials uint16) {
		c := CollisionParams{N: 2 + int(n)%63, P: p} // any P: Bool treats it as both kernels do
		c.R = 1 + int(r)%c.N
		checkCollision(t, c, seed, int(trials)%2000)
	})
}

// checkBackoff plays three episodes back to back on one runner (a
// background episode, an all-to-one burst that stops with contenders
// still scheduled, and a background episode again, so the runner's reuse
// is part of what is compared) against the reference kernels on a second
// generator in the same state.
func checkBackoff(t *testing.T, m BackoffModel, seed uint64, k, maxSlots int) {
	t.Helper()
	got, want := sim.NewRNG(seed), sim.NewRNG(seed)
	run := newEpisodeRunner(m)
	at := func(step string) string {
		return fmt.Sprintf("%+v seed %d k %d maxSlots %d, %s", m, seed, k, maxSlots, step)
	}
	for _, step := range []string{"first episode", "burst", "episode after the burst"} {
		if step == "burst" {
			_, delivered, slots, retries := run.play(got, k, maxSlots, true)
			wSlots, wRetries, wOK := m.refFirstSuccess(want, k, maxSlots)
			if slots != wSlots || retries != wRetries || (delivered == 1) != wOK {
				t.Fatalf("%s: (slots, retries, ok) = (%d, %d, %v), reference (%d, %d, %v)",
					at(step), slots, retries, delivered == 1, wSlots, wRetries, wOK)
			}
		} else {
			cycles, resolved, _, _ := run.play(got, k, maxSlots, false)
			wCycles, wResolved := m.refEpisode(want, k, maxSlots)
			if cycles != wCycles || resolved != wResolved {
				t.Fatalf("%s: (totalCycles, resolved) = (%v, %d), reference (%v, %d)",
					at(step), cycles, resolved, wCycles, wResolved)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("%s: generators diverge", at(step))
		}
	}
}

func TestEpisodeMatchesReference(t *testing.T) {
	var models []BackoffModel
	for _, w := range []float64{1.5, 2.0, 2.7, 3.0, 4.0, 5.0} { // the Figure 4 grid
		for _, b := range []float64{1.05, 1.1, 1.2, 1.5, 2.0} {
			models = append(models, BackoffModel{W: w, B: b, SlotCycles: 2})
		}
	}
	models = append(models,
		BackoffModel{W: 2.7, B: 1.1, SlotCycles: 2, DetectSlot: 3}, // detection delays every retry
		BackoffModel{W: 0.4, B: 1.3, SlotCycles: 2},                // windows start under the 1-slot floor
		BackoffModel{W: 3, B: 1, SlotCycles: 1},                    // fixed window: the burst may never resolve
		BackoffModel{W: 300, B: 1.5, SlotCycles: 2, DetectSlot: 1}, // first waits already past the ring's span
	)
	horizons := []int{1, 64, 1 << 14}
	if testing.Short() {
		horizons = []int{1, 64, 1 << 10}
	}
	seed := uint64(100)
	for _, m := range models {
		for _, g := range []float64{0, 0.01, 0.1, 0.5} {
			for _, k := range []int{1, 2, 32} {
				for _, maxSlots := range horizons {
					// At G = 50% every cell is unstable and the reference
					// scans thousands of contenders a slot: 15 s at the
					// full horizon, for nothing eight turns of the ring
					// have not already shown.
					if g > 0.1 && maxSlots > 1<<11 {
						maxSlots = 1 << 11
					}
					m.G = g
					checkBackoff(t, m, seed, k, maxSlots)
					seed++
				}
			}
		}
	}
}

func FuzzBackoffMatchesReference(f *testing.F) {
	f.Add(uint64(1), 2.7, 1.1, 0.01, uint8(0), uint8(2), uint16(1<<14))
	f.Add(uint64(2), 1.5, 1.05, 0.1, uint8(0), uint8(2), uint16(4000))
	f.Add(uint64(3), 0.4, 1.0, 0.5, uint8(2), uint8(32), uint16(64))
	f.Add(uint64(4), 200.0, 2.0, 0.0, uint8(1), uint8(63), uint16(9000))
	f.Fuzz(func(t *testing.T, seed uint64, w, b, g float64, detect, k uint8, maxSlots uint16) {
		// The model's own domain: a positive window, a base that does not
		// shrink it, a probability. G above one half makes the reference
		// scan tens of thousands of contenders a slot.
		if !(w > 0 && w <= 1024) || !(b >= 1 && b <= 4) || !(g >= 0 && g <= 0.5) {
			t.Skip()
		}
		m := BackoffModel{W: w, B: b, G: g, SlotCycles: 2, DetectSlot: int(detect) % 8}
		checkBackoff(t, m, seed, int(k)%65, int(maxSlots)%(1<<14+1))
	})
}

// TestScheduleFilesByDistance covers the two waits no seed will draw in
// a test's lifetime (exactly zero, which needs Float64() == 0) or that
// only a horizon makes unreachable, and the boundary between ring and far.
func TestScheduleFilesByDistance(t *testing.T) {
	const now, maxSlots = 1000, 5000
	r := newEpisodeRunner(PaperBackoff(0))
	r.cs = make([]contender, 8)
	r.live = len(r.cs)
	r.schedule(0, now, now, maxSlots)             // a wait of zero slots
	r.schedule(1, now, now-7, maxSlots)           // behind now (a wrapped or negative wait)
	r.schedule(2, now, maxSlots+1, maxSlots)      // one past the horizon
	r.schedule(3, now, math.MaxInt, maxSlots)     // int(+Inf) on some platforms
	r.schedule(4, now, math.MinInt, maxSlots)     // int(+Inf) on amd64
	r.schedule(5, now, now+1, maxSlots)           // the next slot
	r.schedule(6, now, now+ringSlots-1, maxSlots) // the last slot the ring spans
	r.schedule(7, now, now+ringSlots, maxSlots)   // the first it does not
	filed := map[int32]string{}
	for s, b := range r.ring {
		for _, id := range b {
			filed[id] = fmt.Sprintf("ring[%d]", s)
		}
	}
	for _, id := range r.far {
		filed[id] = fmt.Sprintf("far@%d", r.cs[id].next)
	}
	want := map[int32]string{
		5: fmt.Sprintf("ring[%d]", (now+1)%ringSlots),
		6: fmt.Sprintf("ring[%d]", (now+ringSlots-1)%ringSlots),
		7: fmt.Sprintf("far@%d", now+ringSlots),
	}
	if len(filed) != len(want) {
		t.Fatalf("filed %v, want %v (ids 0-4 are live but silent)", filed, want)
	}
	for id, where := range want {
		if filed[id] != where {
			t.Errorf("id %d filed in %q, want %q", id, filed[id], where)
		}
	}

	// The parked id comes into the ring at the multiple of ringSlots at or
	// before its slot, and not at an earlier one.
	next := now + ringSlots
	early, due := next/ringSlots*ringSlots-ringSlots, next/ringSlots*ringSlots
	if r.pullFar(early); len(r.far) != 1 {
		t.Fatalf("pullFar(%d) moved an id due at %d", early, next)
	}
	r.pullFar(due)
	if b := r.ring[next%ringSlots]; len(r.far) != 0 || len(b) != 1 || b[0] != 7 {
		t.Fatalf("pullFar(%d): far %v, bucket %v; want id 7 in the bucket", due, r.far, b)
	}
}

// TestSilentContenderRunsToHorizon: a contender whose wait can never fire
// is not dropped. It keeps the episode alive (one Bool(G) per slot to the
// horizon) and is never delivered, as in the reference, where it sits in
// the active list matching no slot.
func TestSilentContenderRunsToHorizon(t *testing.T) {
	m := BackoffModel{W: 50, B: 1, G: 0.3, SlotCycles: 2} // waits of 1-50 slots against a horizon of 3
	const maxSlots = 3
	seed := uint64(0)
	for ; ; seed++ { // a seed whose two first waits both overshoot
		rng := sim.NewRNG(seed)
		if m.refDrawWait(rng, 1) > maxSlots && m.refDrawWait(rng, 1) > maxSlots {
			break
		}
	}
	rng, fresh := sim.NewRNG(seed), sim.NewRNG(seed)
	run := newEpisodeRunner(m)
	if _, resolved, _, _ := run.play(rng, 2, maxSlots, false); resolved != 0 || run.live != 2 {
		t.Fatalf("resolved %d live %d, want 0 and 2", resolved, run.live)
	}
	for i := 0; i < 2+maxSlots; i++ { // two waits, then one background draw per slot
		fresh.Uint64()
	}
	if rng.Uint64() != fresh.Uint64() {
		t.Fatal("the episode did not draw Bool(G) once per slot up to the horizon")
	}
}

// TestShardAllocationsIndependentOfTrials: both kernels set up their
// arrays once per shard and then run without allocating.
func TestShardAllocationsIndependentOfTrials(t *testing.T) {
	kernels := []struct {
		name  string
		shard func(rng *sim.RNG, trials int)
	}{
		{"collision", func(rng *sim.RNG, trials int) {
			collisionShard(CollisionParams{N: 16, R: 2, P: 0.1}, rng, trials)
		}},
		{"backoff", func(rng *sim.RNG, trials int) {
			PaperBackoff(0.01).delayShard(rng, trials)
		}},
	}
	for _, k := range kernels {
		rng := sim.NewRNG(41)
		small := testing.AllocsPerRun(3, func() { k.shard(rng, 1000) })
		large := testing.AllocsPerRun(3, func() { k.shard(rng, 100000) })
		if small != large || small > 8 {
			t.Errorf("%s shard: %v allocations at 1k trials, %v at 100k; want the same small constant", k.name, small, large)
		}
	}
}
