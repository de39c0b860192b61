// Package stats provides the measurement primitives shared by the
// simulator: counters, scalar summaries, histograms, and text tables that
// mirror the rows and series reported in the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates a stream of float64 observations and reports count,
// mean, min, max, and standard deviation without storing samples.
//
// The variance is carried as Welford's running (mean, M2) pair rather
// than the textbook sum-of-squares: cycle-stamped observations cluster
// near 1e8 with single-digit spread, and sumSq/n - mean² cancels
// catastrophically there (the squares agree to ~16 digits, so their
// difference is pure rounding noise). The plain sum is kept alongside so
// Sum and Mean stay bit-identical to the historical accumulation order.
type Summary struct {
	n        int64
	sum      float64
	mean, m2 float64 // Welford state: running mean and sum of squared deviations
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum += x
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N reports the number of observations.
func (s *Summary) N() int64 { return s.n }

// Sum reports the running total.
func (s *Summary) Sum() float64 { return s.sum }

// Mean reports the average, or 0 when empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min reports the smallest observation, or 0 when empty.
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest observation, or 0 when empty.
func (s *Summary) Max() float64 { return s.max }

// StdDev reports the population standard deviation, or 0 when empty.
func (s *Summary) StdDev() float64 {
	if s.n == 0 {
		return 0
	}
	v := s.m2 / float64(s.n)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Merge folds other into s using the parallel (Chan et al.) form of
// Welford's update, so sharded accumulation keeps the same numerical
// robustness as the serial stream.
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	n := s.n + other.n
	d := other.mean - s.mean
	s.m2 += other.m2 + d*d*float64(s.n)*float64(other.n)/float64(n)
	s.mean += d * float64(other.n) / float64(n)
	s.n = n
	s.sum += other.sum
}

// Histogram counts observations into fixed-width integer buckets
// [0,w), [w,2w), ...; values at or beyond the last bucket accumulate in an
// overflow bucket.
//
// The backing slice is sized by what the histogram holds, not by what it
// declares: it grows to the highest bucket touched, and every bucket
// past its end reads as zero. A per-link latency table declares 400
// buckets and touches the first few dozen, and there is one per link.
type Histogram struct {
	width    int64
	nbuckets int
	buckets  []int64 // len <= nbuckets; buckets[len:nbuckets] are implicitly zero
	over     int64
	total    int64
	sum      int64
}

// NewHistogram builds a histogram with nbuckets buckets of the given
// width. It panics on non-positive arguments. Given a histogram no one
// reads any more, it empties and returns that one, keeping its buckets'
// storage.
func NewHistogram(width int64, nbuckets int, donor ...*Histogram) *Histogram {
	if width <= 0 || nbuckets <= 0 {
		panic("stats: invalid histogram shape")
	}
	var h *Histogram
	if len(donor) > 0 && donor[0] != nil {
		h = donor[0]
		*h = Histogram{buckets: h.buckets[:0]}
	} else {
		h = new(Histogram)
	}
	h.width, h.nbuckets = width, nbuckets
	return h
}

// Add records one observation. Negative values clamp to bucket 0.
func (h *Histogram) Add(v int64) { h.AddN(v, 1) }

// AddN records n identical observations.
func (h *Histogram) AddN(v, n int64) {
	h.total += n
	h.sum += v * n
	if v < 0 {
		v = 0
	}
	i := v / h.width
	if i >= int64(h.nbuckets) {
		h.over += n
		return
	}
	if i >= int64(len(h.buckets)) {
		h.grow(int(i) + 1)
	}
	h.buckets[i] += n
}

// grow extends the backing slice to n zero-filled buckets.
func (h *Histogram) grow(n int) {
	h.buckets = append(h.buckets, make([]int64, n-len(h.buckets))...)
}

// Total reports the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Mean reports the mean of the raw observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Bucket reports the count in bucket i. It panics when i is outside
// [0, NumBuckets).
func (h *Histogram) Bucket(i int) int64 {
	if i < 0 || i >= h.nbuckets {
		panic(fmt.Sprintf("stats: histogram bucket %d out of range [0,%d)", i, h.nbuckets))
	}
	if i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i]
}

// Overflow reports the count beyond the last bucket.
func (h *Histogram) Overflow() int64 { return h.over }

// NumBuckets reports the number of regular buckets.
func (h *Histogram) NumBuckets() int { return h.nbuckets }

// Fraction reports bucket i's share of all observations.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Bucket(i)) / float64(h.total)
}

// ModeFraction reports the largest single-bucket share, as in the paper's
// Figure 5 annotation ("41%" concentrated at the modal latency). The
// first of several equally full buckets wins; a histogram holding only
// overflow reports (0, 0).
func (h *Histogram) ModeFraction() (bucket int, frac float64) {
	var best int64 // bucket 0, touched or not, is the mode until a fuller one is seen
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

// PercentileBound reports the smallest bucket upper bound covering at
// least frac of the mass, plus whether the percentile fell into the
// overflow bucket — in which case the bound is only a lower limit on the
// true value, and callers should render it as ">bound" rather than as a
// measured latency. An empty histogram reports (0, false).
func (h *Histogram) PercentileBound(frac float64) (bound int64, overflow bool) {
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
	// Untouched buckets add nothing to seen: what is left is overflow.
	return int64(h.nbuckets) * h.width, true
}

// Merge folds other into h. Both histograms must share a shape (width
// and bucket count); bucket-wise addition is exact and commutative, so
// merged results are independent of merge order. It panics on a shape
// mismatch rather than resample.
func (h *Histogram) Merge(other *Histogram) {
	if h.width != other.width || h.nbuckets != other.nbuckets {
		panic("stats: histogram shape mismatch in Merge")
	}
	if len(other.buckets) > len(h.buckets) {
		h.grow(len(other.buckets))
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.over += other.over
	h.total += other.total
	h.sum += other.sum
}

// CounterSet is a named bag of int64 counters with deterministic listing.
type CounterSet struct {
	m map[string]int64
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet {
	return &CounterSet{m: make(map[string]int64)}
}

// Inc adds delta to the named counter.
func (c *CounterSet) Inc(name string, delta int64) { c.m[name] += delta }

// Get reads the named counter (0 when unset).
func (c *CounterSet) Get(name string) int64 { return c.m[name] }

// Names lists counters in sorted order.
func (c *CounterSet) Names() []string {
	names := make([]string, 0, len(c.m))
	for k := range c.m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// GeoMean returns the geometric mean of xs, the aggregation the paper
// uses for speedups. Non-positive inputs panic.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Table formats aligned text tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: strings pass through,
// float64 format with %.3g unless fmtSpec overrides, ints with %d.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case int64:
			row = append(row, fmt.Sprintf("%d", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
