package sim

import (
	"math"
	"testing"
)

// thresholdProbabilities are the p at which an integer threshold could
// part from Bool(p): the ends of [0, 1] and what lies beyond them, the
// smallest step of Float64 and a step either side of its multiples, and
// the smallest positive float.
func thresholdProbabilities() []float64 {
	ps := []float64{
		0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1),
		1, math.Nextafter(1, 2), 0x1p-53, 5e-324,
	}
	for _, k := range []float64{1, 2, 3, 1000, 1 << 26, 1<<52 - 1, 1 << 52, 1<<52 + 1, 1<<53 - 1} {
		p := k * 0x1p-53
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 2))
	}
	return ps
}

// checkThreshold holds NewThreshold(p) to Unit(x) < p, the comparison
// Bool(p) makes, on draws x whose top 53 bits k sit at and either side
// of the threshold, with the low 11 bits, which neither side reads, both
// clear and set.
func checkThreshold(t *testing.T, p float64) {
	t.Helper()
	th := NewThreshold(p)
	for _, k := range []uint64{0, 1, 2, uint64(th) - 2, uint64(th) - 1, uint64(th), uint64(th) + 1, 1<<53 - 2, 1<<53 - 1} {
		k &= 1<<53 - 1
		for _, low := range []uint64{0, 1<<11 - 1} {
			x := k<<11 | low
			if got, want := th.Bool(x), Unit(x) < p; got != want {
				t.Fatalf("p = %v (%#x): threshold %d says %v for k = %d, Unit(x) < p says %v",
					p, math.Float64bits(p), th, got, k, want)
			}
		}
	}
}

// checkDraws draws n decisions at p through (*RNG).Bool and through the
// threshold on a value state from the same seed, and requires the same
// decisions and the same generator state afterwards.
func checkDraws(t *testing.T, p float64, seed uint64, n int) {
	t.Helper()
	byBool, byState := NewRNG(seed), NewRNG(seed)
	th := NewThreshold(p)
	st := byState.State()
	for i := 0; i < n; i++ {
		var x uint64
		st, x = st.Next()
		if got, want := th.Bool(x), byBool.Bool(p); got != want {
			t.Fatalf("p = %v seed %d draw %d: threshold says %v, Bool says %v", p, seed, i, got, want)
		}
	}
	byState.SetState(st)
	if byState.State() != byBool.State() {
		t.Fatalf("p = %v seed %d: generators part after %d draws", p, seed, n)
	}
}

func TestThresholdMatchesBool(t *testing.T) {
	for i, p := range thresholdProbabilities() {
		checkThreshold(t, p)
		checkDraws(t, p, uint64(i), 2000)
	}
	// The degenerate thresholds, spelled out.
	for _, c := range []struct {
		p    float64
		want Threshold
	}{
		{0, 0}, {math.Copysign(0, -1), 0}, {-1, 0}, {math.NaN(), 0}, {math.Inf(-1), 0},
		{5e-324, 1}, {0x1p-53, 1}, {math.Nextafter(0x1p-53, 2), 2},
		{1, 1 << 53}, {math.Nextafter(1, 2), 1 << 53}, {math.Inf(1), 1 << 53},
	} {
		if got := NewThreshold(c.p); got != c.want {
			t.Errorf("NewThreshold(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func FuzzThresholdMatchesBool(f *testing.F) {
	for i, p := range thresholdProbabilities() {
		f.Add(uint64(i), p, uint64(i)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, seed uint64, p float64, x uint64) {
		if got, want := NewThreshold(p).Bool(x), Unit(x) < p; got != want {
			t.Fatalf("p = %v x = %#x: threshold says %v, Unit(x) < p says %v", p, x, got, want)
		}
		checkThreshold(t, p)
		checkDraws(t, p, seed, 64)
	})
}

// TestStateReproducesUint64: stepping a copied-out state yields Uint64's
// sequence, and writing it back leaves the generator exactly where as
// many Uint64 calls would have.
func TestStateReproducesUint64(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		ref, r := NewRNG(seed), NewRNG(seed)
		for round := 0; round < 4; round++ {
			st := r.State()
			for i := 0; i < 257*round; i++ {
				var x uint64
				if st, x = st.Next(); x != ref.Uint64() {
					t.Fatalf("seed %d round %d draw %d: state and Uint64 part", seed, round, i)
				}
			}
			r.SetState(st)
			if r.State() != st || r.State() != ref.State() {
				t.Fatalf("seed %d round %d: written-back state differs", seed, round)
			}
			if r.Uint64() != ref.Uint64() { // and the pointer path carries on from it
				t.Fatalf("seed %d round %d: Uint64 after the write-back parts", seed, round)
			}
		}
	}
}
