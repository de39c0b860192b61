// Package sim provides the deterministic simulation kernel used by every
// other module in this repository: a cycle clock, a timed event queue, and
// named pseudo-random streams.
//
// Determinism is a first-class requirement. Every source of randomness is
// an *RNG derived from a seed and a name, so that a simulation configured
// identically always produces bit-identical results, independent of
// iteration order elsewhere in the program.
package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). It is not safe for concurrent use; derive one stream per
// logical owner instead of sharing.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances x and returns the next splitmix64 output. It is used
// only for seeding so that nearby seeds yield well-separated states.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two generators with the
// same seed produce the same sequence.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitMix64(&x)
	}
	// A state of all zeros would be a fixed point; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// NewStream derives an independent generator from r identified by name.
// Deriving the same name twice from generators in the same state yields
// identical streams; different names yield decorrelated streams.
func (r *RNG) NewStream(name string) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 { //lint:allow floateq exact-zero rejection sampling: log(0) is the only excluded point
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ZipfTable is the cumulative distribution of a Zipf-like law over [0, n)
// with exponent s. Building it costs one math.Pow per entry; it is never
// written afterwards, so any number of samplers, on any goroutines, may
// share one.
type ZipfTable struct {
	cdf []float64
}

// NewZipfTable builds the Zipf(n, s) table.
func NewZipfTable(n int, s float64) *ZipfTable {
	if n <= 0 {
		panic("sim: NewZipfTable called with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &ZipfTable{cdf: cdf}
}

// Sampler returns a sampler over the table drawing from rng.
func (t *ZipfTable) Sampler(rng *RNG) *Zipf {
	return &Zipf{cdf: t.cdf, rng: rng}
}

// Zipf draws values in [0, n) from a ZipfTable by inverse-CDF binary
// search, one Float64 per sample.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// Next draws the next sample.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
