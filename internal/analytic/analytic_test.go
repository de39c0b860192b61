package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"fsoi/internal/sim"
)

func TestCollisionFormulaMatchesMonteCarlo(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, r := range []int{1, 2, 3} {
		for _, p := range []float64{0.05, 0.15, 0.33} {
			c := CollisionParams{N: 16, R: r, P: p}
			mcPkt, mcNode := MonteCarloCollision(c, rng, 40000, 1)
			anPkt := PacketCollisionProbability(c)
			anNode := NodeCollisionProbability(c)
			if math.Abs(mcPkt-anPkt) > 0.02 {
				t.Errorf("R=%d p=%.2f: per-packet analytic %.4f vs MC %.4f", r, p, anPkt, mcPkt)
			}
			if math.Abs(mcNode-anNode) > 0.02 {
				t.Errorf("R=%d p=%.2f: per-node analytic %.4f vs MC %.4f", r, p, anNode, mcNode)
			}
		}
	}
}

func TestCollisionInverseInReceivers(t *testing.T) {
	// §4.3.2: collision frequency is roughly inversely proportional to
	// the number of receivers.
	p1 := PacketCollisionProbability(CollisionParams{N: 16, R: 1, P: 0.1})
	p2 := PacketCollisionProbability(CollisionParams{N: 16, R: 2, P: 0.1})
	p4 := PacketCollisionProbability(CollisionParams{N: 16, R: 4, P: 0.1})
	if ratio := p1 / p2; ratio < 1.7 || ratio > 2.3 {
		t.Errorf("R=1/R=2 ratio %.2f, want ~2", ratio)
	}
	if ratio := p1 / p4; ratio < 3.2 || ratio > 5.0 {
		t.Errorf("R=1/R=4 ratio %.2f, want ~4", ratio)
	}
}

func TestCollisionWeakDependenceOnN(t *testing.T) {
	// Figure 3 caption: the result depends only weakly on N.
	a := PacketCollisionProbability(CollisionParams{N: 16, R: 2, P: 0.2})
	b := PacketCollisionProbability(CollisionParams{N: 64, R: 2, P: 0.2})
	if math.Abs(a-b)/a > 0.15 {
		t.Errorf("N=16 %.4f vs N=64 %.4f differ too much", a, b)
	}
}

func TestCollisionMonotonicInP(t *testing.T) {
	err := quick.Check(func(raw uint8) bool {
		p := float64(raw%30)/100 + 0.01
		lo := PacketCollisionProbability(CollisionParams{N: 16, R: 2, P: p})
		hi := PacketCollisionProbability(CollisionParams{N: 16, R: 2, P: p + 0.02})
		return hi >= lo
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollisionProbabilityBounds(t *testing.T) {
	err := quick.Check(func(n, r, praw uint8) bool {
		c := CollisionParams{N: int(n%62) + 2, R: int(r%4) + 1, P: float64(praw) / 256}
		pp := PacketCollisionProbability(c)
		pn := NodeCollisionProbability(c)
		return pp >= 0 && pp <= 1 && pn >= 0 && pn <= 1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthOptimumNearPaper(t *testing.T) {
	m := PaperBandwidthModel()
	bm := m.OptimalMetaShare()
	if math.Abs(bm-0.285) > 0.01 {
		t.Fatalf("optimal meta share = %.4f, paper reports 0.285", bm)
	}
}

func TestBandwidthLaneAllocation(t *testing.T) {
	m := PaperBandwidthModel()
	meta, data := m.LaneAllocation(9)
	if meta != 3 || data != 6 {
		t.Fatalf("allocation = %d/%d, want 3/6", meta, data)
	}
}

func TestBandwidthLatencyConvex(t *testing.T) {
	m := PaperBandwidthModel()
	opt := m.OptimalMetaShare()
	for _, d := range []float64{0.05, 0.1, 0.2} {
		if m.Latency(opt) > m.Latency(opt+d) || m.Latency(opt) > m.Latency(opt-d) {
			t.Fatalf("latency not minimal at claimed optimum (d=%.2f)", d)
		}
	}
}

func TestBandwidthLatencyInfiniteAtEdges(t *testing.T) {
	m := PaperBandwidthModel()
	if !math.IsInf(m.Latency(0), 1) || !math.IsInf(m.Latency(1), 1) {
		t.Fatal("edge shares should cost infinite latency")
	}
}

func TestBackoffPaperPointBeatsClassicDoubling(t *testing.T) {
	rng := sim.NewRNG(5)
	paper := PaperBackoff(0.01)
	classic := paper
	classic.B = 2
	dPaper := paper.MeanResolutionDelay(rng.NewStream("a"), 30000, 1)
	dClassic := classic.MeanResolutionDelay(rng.NewStream("b"), 30000, 1)
	if dPaper >= dClassic {
		t.Fatalf("B=1.1 delay %.2f should beat B=2 delay %.2f in the common case", dPaper, dClassic)
	}
}

func TestBackoffDelayReasonableRange(t *testing.T) {
	// The paper computes 7.26 cycles and simulates ~7.4 for W=2.7 B=1.1;
	// our slot-level model should land in the same neighbourhood.
	rng := sim.NewRNG(7)
	d := PaperBackoff(0.01).MeanResolutionDelay(rng, 30000, 1)
	if d < 4 || d > 11 {
		t.Fatalf("mean resolution delay %.2f outside the plausible band", d)
	}
}

func TestBackoffBackgroundInsensitive(t *testing.T) {
	// Figure 4: background rates of 1% and 10% barely move the optimum.
	rng := sim.NewRNG(9)
	d1 := PaperBackoff(0.01).MeanResolutionDelay(rng.NewStream("a"), 30000, 1)
	d10 := PaperBackoff(0.10).MeanResolutionDelay(rng.NewStream("b"), 30000, 1)
	if d10 < d1 {
		t.Fatalf("more background should not reduce delay: %.2f vs %.2f", d1, d10)
	}
	if d10 > 2.5*d1 {
		t.Fatalf("background impact too strong: %.2f vs %.2f", d1, d10)
	}
}

func TestBackoffOptimumLocation(t *testing.T) {
	rng := sim.NewRNG(11)
	ws := []float64{1.5, 2.0, 2.7, 3.5, 4.5}
	bs := []float64{1.05, 1.1, 1.3, 1.6, 2.0}
	w, b, _ := OptimalWB(ws, bs, 0.01, rng, 8000, 1)
	if b > 1.3 {
		t.Errorf("optimal B = %.2f; the paper finds small bases (~1.1) win", b)
	}
	if w > 4 {
		t.Errorf("optimal W = %.2f; the paper finds small windows (~2.7) win", w)
	}
}

func TestPathologicalResolves(t *testing.T) {
	rng := sim.NewRNG(13)
	res := PaperBackoff(0).Pathological(rng, 64, 2, 100, 1<<17, 1)
	if !res.Resolved {
		t.Fatal("exponential backoff should resolve the 64-node burst")
	}
	if res.MeanRetriesFirst < 3 || res.MeanRetriesFirst > 80 {
		t.Fatalf("first-success retries %.1f implausible (paper: ~26)", res.MeanRetriesFirst)
	}
}

func TestPathologicalFixedWindowStruggles(t *testing.T) {
	rng := sim.NewRNG(17)
	fixed := BackoffModel{W: 3, B: 1, G: 0, SlotCycles: 2, DetectSlot: 0}
	exp := BackoffModel{W: 3, B: 2, G: 0, SlotCycles: 2, DetectSlot: 0}
	rf := fixed.Pathological(rng.NewStream("f"), 64, 2, 30, 1<<14, 1)
	re := exp.Pathological(rng.NewStream("e"), 64, 2, 30, 1<<14, 1)
	if !re.Resolved {
		t.Fatal("B=2 should resolve quickly")
	}
	if rf.Resolved && rf.MeanCyclesFirst < re.MeanCyclesFirst {
		t.Fatalf("fixed window (%.0f cyc) should not beat doubling (%.0f cyc) in the pathological burst",
			rf.MeanCyclesFirst, re.MeanCyclesFirst)
	}
}

func TestTwoReceiverRetransmitApproximation(t *testing.T) {
	// Footnote 4: the expression ~ pt/2 - pt^2/8 for moderate pt.
	for _, pt := range []float64{0.05, 0.1, 0.2} {
		exact := TwoReceiverRetransmitCollision(16, pt)
		approx := pt/2 - pt*pt/8
		if math.Abs(exact-approx) > 0.02 {
			t.Errorf("pt=%.2f: exact %.4f vs series %.4f", pt, exact, approx)
		}
	}
}

// TestMonteCarloWorkerCountInvariance is the sharding contract: every
// estimator must produce bit-identical float results at any worker
// count, because trials are dealt across fixed named sub-streams and
// reduced in shard order regardless of how many goroutines run them.
func TestMonteCarloWorkerCountInvariance(t *testing.T) {
	c := CollisionParams{N: 16, R: 2, P: 0.2}
	p1, n1 := MonteCarloCollision(c, sim.NewRNG(23), 10000, 1)
	for _, w := range []int{2, 4, 8} {
		pw, nw := MonteCarloCollision(c, sim.NewRNG(23), 10000, w)
		if pw != p1 || nw != n1 {
			t.Fatalf("workers=%d: (%v,%v) != workers=1 (%v,%v)", w, pw, nw, p1, n1)
		}
	}

	m := PaperBackoff(0.01)
	d1 := m.MeanResolutionDelay(sim.NewRNG(29), 10000, 1)
	for _, w := range []int{2, 8} {
		if dw := m.MeanResolutionDelay(sim.NewRNG(29), 10000, w); dw != d1 {
			t.Fatalf("MeanResolutionDelay workers=%d: %v != %v", w, dw, d1)
		}
	}

	r1 := PaperBackoff(0).Pathological(sim.NewRNG(31), 64, 2, 40, 1<<14, 1)
	r8 := PaperBackoff(0).Pathological(sim.NewRNG(31), 64, 2, 40, 1<<14, 8)
	if r1 != r8 {
		t.Fatalf("Pathological diverges across workers: %+v vs %+v", r1, r8)
	}

	ws := []float64{2, 2.7}
	bs := []float64{1.1, 1.6}
	s1 := ResolutionDelaySurface(ws, bs, 0.01, sim.NewRNG(37), 2000, 1)
	s8 := ResolutionDelaySurface(ws, bs, 0.01, sim.NewRNG(37), 2000, 8)
	for i := range s1 {
		for j := range s1[i] {
			if s1[i][j] != s8[i][j] {
				t.Fatalf("surface[%d][%d] diverges across workers: %v vs %v", i, j, s1[i][j], s8[i][j])
			}
		}
	}
}

func TestResolutionDelaySurfaceShape(t *testing.T) {
	rng := sim.NewRNG(19)
	ws := []float64{2, 3}
	bs := []float64{1.1, 2}
	s := ResolutionDelaySurface(ws, bs, 0.01, rng, 4000, 1)
	if len(s) != 2 || len(s[0]) != 2 {
		t.Fatalf("surface shape %dx%d", len(s), len(s[0]))
	}
	for i := range s {
		for j := range s[i] {
			if s[i][j] <= 0 || math.IsInf(s[i][j], 0) {
				t.Fatalf("surface[%d][%d] = %g", i, j, s[i][j])
			}
		}
	}
}

// TestEstimatorsRejectNonPositiveTrials: a mean over no trials is 0/0.
// Both estimators refuse it the same way; cmd/experiments turns a bad
// -trials away before either is reached.
func TestEstimatorsRejectNonPositiveTrials(t *testing.T) {
	for name, estimate := range map[string]func(trials int){
		"MonteCarloCollision": func(trials int) {
			MonteCarloCollision(CollisionParams{N: 16, R: 2, P: 0.1}, sim.NewRNG(1), trials, 1)
		},
		"MeanResolutionDelay": func(trials int) { PaperBackoff(0.01).MeanResolutionDelay(sim.NewRNG(1), trials, 1) },
	} {
		for _, trials := range []int{0, -3} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted %d trials", name, trials)
					}
				}()
				estimate(trials)
			}()
		}
	}
}
