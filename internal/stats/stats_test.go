package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.N() != 4 || s.Sum() != 10 || s.Mean() != 2.5 || s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("summary wrong: n=%d sum=%g mean=%g min=%g max=%g", s.N(), s.Sum(), s.Mean(), s.Min(), s.Max())
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Fatalf("stddev = %g, want %g", s.StdDev(), want)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 || s.N() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryMergeMatchesCombined(t *testing.T) {
	clamp := func(v float64) (float64, bool) {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return 0, false
		}
		return v, true
	}
	err := quick.Check(func(a, b []float64) bool {
		var s1, s2, all Summary
		for _, raw := range a {
			v, ok := clamp(raw)
			if !ok {
				continue
			}
			s1.Add(v)
			all.Add(v)
		}
		for _, raw := range b {
			v, ok := clamp(raw)
			if !ok {
				continue
			}
			s2.Add(v)
			all.Add(v)
		}
		s1.Merge(&s2)
		return s1.N() == all.N() &&
			math.Abs(s1.Sum()-all.Sum()) < 1e-6*(1+math.Abs(all.Sum()))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSummaryStdDevLargeMean is the catastrophic-cancellation
// regression test. Cycle-stamped observations cluster near 1e8 with
// tiny spread; the pre-Welford sumSq/n - mean² formula loses the
// variance entirely there (the two squares agree to ~16 digits, so
// their difference is rounding noise — it reports 0, or the square
// root of a negative). Welford's update keeps the full precision; any
// return to the naive formula fails the 1e-6 tolerance immediately.
func TestSummaryStdDevLargeMean(t *testing.T) {
	var s Summary
	for i := 0; i < 1000; i++ {
		s.Add(1e8 + float64(i%2)) // alternating 1e8, 1e8+1: stddev exactly 0.5
	}
	if got := s.StdDev(); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("stddev of {1e8, 1e8+1}x500 = %.9g, want 0.5 (catastrophic cancellation)", got)
	}
	if got := s.Mean(); math.Abs(got-(1e8+0.5)) > 1e-6 {
		t.Fatalf("mean = %.12g, want 1e8+0.5", got)
	}
}

// TestSummaryMergeStdDevLargeMean checks the parallel (Chan et al.)
// merge form keeps the same robustness as the serial stream on the
// large-mean data that breaks the naive formula.
func TestSummaryMergeStdDevLargeMean(t *testing.T) {
	var a, b, all Summary
	for i := 0; i < 500; i++ {
		a.Add(1e8)
		b.Add(1e8 + 1)
		all.Add(1e8)
		all.Add(1e8 + 1)
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged n = %d, want %d", a.N(), all.N())
	}
	if got, want := a.StdDev(), all.StdDev(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("merged stddev = %.9g, serial stddev = %.9g", got, want)
	}
	if math.Abs(a.StdDev()-0.5) > 1e-6 {
		t.Fatalf("merged stddev = %.9g, want 0.5", a.StdDev())
	}
}

func TestSummaryMergeEmptySides(t *testing.T) {
	var empty, s Summary
	s.Add(3)
	s.Add(5)
	before := s
	s.Merge(&empty)
	if s != before {
		t.Fatal("merging an empty summary must be a no-op")
	}
	empty.Merge(&s)
	if empty.N() != 2 || empty.Mean() != 4 || empty.Min() != 3 || empty.Max() != 5 {
		t.Fatalf("merge into empty lost data: n=%d mean=%g", empty.N(), empty.Mean())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 5)
	h.Add(0)
	h.Add(9)
	h.Add(10)
	h.Add(49)
	h.Add(50) // overflow
	h.Add(-3) // clamps to bucket 0
	if h.Bucket(0) != 3 || h.Bucket(1) != 1 || h.Bucket(4) != 1 || h.Overflow() != 1 {
		t.Fatalf("bucket layout wrong: %d %d %d over=%d", h.Bucket(0), h.Bucket(1), h.Bucket(4), h.Overflow())
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestHistogramModeFraction(t *testing.T) {
	h := NewHistogram(5, 10)
	for i := 0; i < 41; i++ {
		h.Add(12)
	}
	for i := 0; i < 59; i++ {
		h.Add(int64(i % 50))
	}
	b, f := h.ModeFraction()
	if b != 2 {
		t.Fatalf("mode bucket = %d, want 2", b)
	}
	if f < 0.41 || f > 0.60 {
		t.Fatalf("mode fraction = %g", f)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := int64(0); i < 100; i++ {
		h.Add(i)
	}
	if p, over := h.PercentileBound(0.5); p != 50 || over {
		t.Fatalf("p50 = (%d, %v)", p, over)
	}
	if p, over := h.PercentileBound(0.99); p != 99 || over {
		t.Fatalf("p99 = (%d, %v)", p, over)
	}
}

// TestHistogramPercentileEmpty pins the edge-case fix: an empty
// histogram reports 0, not its bucket width (the old code returned
// width because the loop never ran and the fallthrough used bucket 1's
// bound).
func TestHistogramPercentileEmpty(t *testing.T) {
	h := NewHistogram(10, 5)
	if bound, over := h.PercentileBound(0.99); bound != 0 || over {
		t.Fatalf("empty histogram PercentileBound = (%d, %v), want (0, false)", bound, over)
	}
}

// TestHistogramPercentileOverflow pins the other edge case: a
// percentile landing in the overflow bucket must be distinguishable
// from mass genuinely in the last real bucket — both report the same
// bound, but only the overflow sets the flag.
func TestHistogramPercentileOverflow(t *testing.T) {
	over := NewHistogram(10, 5)
	over.Add(500) // beyond the last bucket
	bound, isOver := over.PercentileBound(0.5)
	if bound != 50 || !isOver {
		t.Fatalf("overflow-only PercentileBound = (%d, %v), want (50, true)", bound, isOver)
	}

	last := NewHistogram(10, 5)
	last.Add(49) // last real bucket
	bound, isOver = last.PercentileBound(0.5)
	if bound != 50 || isOver {
		t.Fatalf("last-bucket PercentileBound = (%d, %v), want (50, false)", bound, isOver)
	}

	// Mixed mass: p50 in a real bucket, p99 in overflow.
	mixed := NewHistogram(10, 5)
	for i := 0; i < 98; i++ {
		mixed.Add(5)
	}
	mixed.Add(1000)
	mixed.Add(1000)
	if bound, isOver = mixed.PercentileBound(0.5); bound != 10 || isOver {
		t.Fatalf("mixed p50 = (%d, %v), want (10, false)", bound, isOver)
	}
	if bound, isOver = mixed.PercentileBound(0.999); bound != 50 || !isOver {
		t.Fatalf("mixed p99.9 = (%d, %v), want (50, true)", bound, isOver)
	}
}

func TestHistogramAddN(t *testing.T) {
	a := NewHistogram(4, 8)
	b := NewHistogram(4, 8)
	for i := 0; i < 7; i++ {
		a.Add(13)
	}
	b.AddN(13, 7)
	if a.Bucket(3) != b.Bucket(3) || a.Total() != b.Total() || a.Mean() != b.Mean() {
		t.Fatal("AddN should equal repeated Add")
	}
}

func TestCounterSet(t *testing.T) {
	c := NewCounterSet()
	c.Inc("b", 2)
	c.Inc("a", 1)
	c.Inc("b", 3)
	if c.Get("b") != 5 || c.Get("a") != 1 || c.Get("missing") != 0 {
		t.Fatal("counter values wrong")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %g", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty GeoMean should be 0")
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean of 0 should panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("app", "speedup")
	tb.AddRowf("fft", 1.25)
	tb.AddRow("lu", "2.000", "extra-dropped")
	out := tb.String()
	if !strings.Contains(out, "app") || !strings.Contains(out, "1.250") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+sep+2 rows, got %d lines", len(lines))
	}
	if strings.Contains(out, "extra-dropped") {
		t.Fatal("cells beyond header width should be dropped")
	}
}
