package stats

import (
	"math"
	"testing"

	"fsoi/internal/sim"
)

// denseHistogram is the histogram as it was before the backing slice
// became demand-sized: every declared bucket allocated up front. It lives
// here only as the reference the demand-sized Histogram is held to.
type denseHistogram struct {
	width   int64
	buckets []int64
	over    int64
	total   int64
	sum     int64
}

func newDenseHistogram(width int64, nbuckets int) *denseHistogram {
	return &denseHistogram{width: width, buckets: make([]int64, nbuckets)}
}

func (h *denseHistogram) AddN(v, n int64) {
	h.total += n
	h.sum += v * n
	if v < 0 {
		v = 0
	}
	i := v / h.width
	if i >= int64(len(h.buckets)) {
		h.over += n
		return
	}
	h.buckets[i] += n
}

func (h *denseHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

func (h *denseHistogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.buckets[i]) / float64(h.total)
}

func (h *denseHistogram) ModeFraction() (bucket int, frac float64) {
	best := int64(-1)
	for i, c := range h.buckets {
		if c > best {
			best = c
			bucket = i
		}
	}
	if h.total == 0 {
		return 0, 0
	}
	return bucket, float64(best) / float64(h.total)
}

func (h *denseHistogram) PercentileBound(frac float64) (bound int64, overflow bool) {
	if h.total == 0 {
		return 0, false
	}
	want := int64(math.Ceil(frac * float64(h.total)))
	if want < 1 {
		want = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= want {
			return int64(i+1) * h.width, false
		}
	}
	return int64(len(h.buckets)) * h.width, true
}

func (h *denseHistogram) Merge(other *denseHistogram) {
	if h.width != other.width || len(h.buckets) != len(other.buckets) {
		panic("stats: histogram shape mismatch in Merge")
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.over += other.over
	h.total += other.total
	h.sum += other.sum
}

// sameAsDense compares every accessor of h with the dense reference.
func sameAsDense(t *testing.T, when string, h *Histogram, d *denseHistogram) {
	t.Helper()
	if h.NumBuckets() != len(d.buckets) || h.Total() != d.total || h.Overflow() != d.over || h.Mean() != d.Mean() {
		t.Fatalf("%s: buckets/total/overflow/mean = %d/%d/%d/%g, dense %d/%d/%d/%g", when,
			h.NumBuckets(), h.Total(), h.Overflow(), h.Mean(), len(d.buckets), d.total, d.over, d.Mean())
	}
	for i := range d.buckets {
		if h.Bucket(i) != d.buckets[i] || h.Fraction(i) != d.Fraction(i) {
			t.Fatalf("%s: bucket %d = %d (%g), dense %d (%g)", when, i,
				h.Bucket(i), h.Fraction(i), d.buckets[i], d.Fraction(i))
		}
	}
	hb, hf := h.ModeFraction()
	db, df := d.ModeFraction()
	if hb != db || hf != df {
		t.Fatalf("%s: ModeFraction = (%d, %g), dense (%d, %g)", when, hb, hf, db, df)
	}
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		hbound, hover := h.PercentileBound(q)
		dbound, dover := d.PercentileBound(q)
		if hbound != dbound || hover != dover {
			t.Fatalf("%s: PercentileBound(%g) = (%d, %v), dense (%d, %v)", when, q, hbound, hover, dbound, dover)
		}
	}
	if len(h.buckets) > len(d.buckets) {
		t.Fatalf("%s: backing slice holds %d buckets, %d declared", when, len(h.buckets), len(d.buckets))
	}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestHistogramDemandSizedMatchesDense drives pairs of demand-sized and
// dense histograms through the same random AddN and Merge sequences and
// compares every accessor after every step. Values are drawn so that the
// low buckets (where latencies sit), the last bucket, the overflow and
// the negative clamp are all hit, and merges run between histograms
// grown to different lengths, in both directions.
func TestHistogramDemandSizedMatchesDense(t *testing.T) {
	shapes := []struct {
		width    int64
		nbuckets int
	}{{5, 400}, {5, 60}, {1, 1}, {7, 3}, {10, 5}}
	for _, shape := range shapes {
		rng := sim.NewRNG(uint64(shape.width)<<16 | uint64(shape.nbuckets))
		span := shape.width * int64(shape.nbuckets)
		value := func() int64 {
			switch rng.Intn(8) {
			case 0:
				return span - 1 - int64(rng.Intn(int(shape.width))) // the last bucket
			case 1:
				return span + int64(rng.Intn(1000)) // overflow, from the first value past the end
			case 2:
				return -int64(rng.Intn(50)) - 1 // clamps to bucket 0
			case 3:
				return int64(rng.Intn(int(span))) // anywhere
			default:
				return int64(rng.Intn(int(span)/8 + 1)) // the low buckets
			}
		}
		const pairs = 4
		var hs [pairs]*Histogram
		var ds [pairs]*denseHistogram
		for i := range hs {
			hs[i], ds[i] = NewHistogram(shape.width, shape.nbuckets), newDenseHistogram(shape.width, shape.nbuckets)
			sameAsDense(t, "empty", hs[i], ds[i])
		}
		for step := 0; step < 400; step++ {
			i := rng.Intn(pairs)
			if rng.Intn(6) == 0 {
				j := rng.Intn(pairs)
				if j == i {
					continue
				}
				hs[i].Merge(hs[j])
				ds[i].Merge(ds[j])
				sameAsDense(t, "merge source", hs[j], ds[j])
			} else {
				v, n := value(), int64(rng.Intn(4)+1)
				hs[i].AddN(v, n)
				ds[i].AddN(v, n)
			}
			sameAsDense(t, "after step", hs[i], ds[i])
		}
		// Out-of-range indices panic whether or not the slice has grown
		// that far, exactly where the dense slice's bounds did.
		for _, h := range []*Histogram{hs[0], NewHistogram(shape.width, shape.nbuckets)} {
			for _, i := range []int{-1, shape.nbuckets, shape.nbuckets + 7} {
				if !panics(func() { h.Bucket(i) }) {
					t.Fatalf("Bucket(%d) of %d buckets must panic", i, shape.nbuckets)
				}
			}
			if panics(func() { h.Bucket(shape.nbuckets - 1) }) {
				t.Fatalf("Bucket(%d) of %d buckets must not panic", shape.nbuckets-1, shape.nbuckets)
			}
		}
		if !panics(func() { hs[0].Fraction(shape.nbuckets) }) {
			t.Fatal("Fraction past the last bucket of a non-empty histogram must panic")
		}
	}
}

// TestHistogramAllOverflowMode pins the case the demand-sized slice makes
// special: nothing but overflow, so no bucket was ever allocated.
func TestHistogramAllOverflowMode(t *testing.T) {
	h := NewHistogram(5, 400)
	h.AddN(5000, 3)
	if b, f := h.ModeFraction(); b != 0 || f != 0 {
		t.Fatalf("ModeFraction of an all-overflow histogram = (%d, %g), want (0, 0)", b, f)
	}
	if bound, over := h.PercentileBound(0.5); bound != 2000 || !over {
		t.Fatalf("PercentileBound = (%d, %v), want (2000, true)", bound, over)
	}
	if len(h.buckets) != 0 {
		t.Fatalf("overflow allocated %d buckets", len(h.buckets))
	}
}

// TestHistogramMergeShapeMismatchPanics: the declared shape is what must
// agree, not the grown length.
func TestHistogramMergeShapeMismatchPanics(t *testing.T) {
	a := NewHistogram(5, 400)
	for _, other := range []*Histogram{NewHistogram(5, 399), NewHistogram(4, 400)} {
		if !panics(func() { a.Merge(other) }) {
			t.Fatal("Merge across shapes must panic")
		}
	}
	b := NewHistogram(5, 400)
	b.Add(1999)
	a.Add(0)
	a.Merge(b) // grown lengths 1 and 400: same shape, no panic
	if a.Bucket(399) != 1 || a.Bucket(0) != 1 || a.Total() != 2 {
		t.Fatalf("merge across grown lengths lost a bucket: %d %d %d", a.Bucket(0), a.Bucket(399), a.Total())
	}
}
