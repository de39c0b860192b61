// Package sim provides the deterministic simulation kernel used by every
// other module in this repository: a cycle clock, a timed event queue, and
// named pseudo-random streams.
//
// Determinism is a first-class requirement. Every source of randomness is
// an *RNG derived from a seed and a name, so that a simulation configured
// identically always produces bit-identical results, independent of
// iteration order elsewhere in the program. An RNG is a xoshiro256**
// stream seeded through splitmix64.
//
// The Engine's event queue is a calendar wheel: one FIFO bucket per
// cycle for the next 1,024 cycles, threaded through one slab, with a
// value-typed 4-ary heap for events a revolution or more out. It
// allocates nothing at steady state. A BusySet is the set of nodes with
// work pending, so a network ticks only those.
package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). It is not safe for concurrent use; derive one stream per
// logical owner instead of sharing.
type RNG struct {
	s State
}

// State is a generator's four state words held by value. A kernel that
// draws in a tight loop copies it out of its *RNG with State, steps it
// with Next in local variables, which the compiler keeps in registers,
// and writes it back with SetState once it is done; in between, the
// *RNG must not be drawn from. The draws are those the *RNG would have
// made: (*RNG).Uint64 is the same step applied through the pointer.
type State struct {
	s0, s1, s2, s3 uint64
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
// same seed produce the same sequence. Given a generator no one draws
// from any more, it reseeds and returns that one instead of allocating.
func NewRNG(seed uint64, donor ...*RNG) *RNG {
	x := seed
	s := State{splitMix64(&x), splitMix64(&x), splitMix64(&x), splitMix64(&x)}
	// A state of all zeros would be a fixed point; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
	var r *RNG
	if len(donor) > 0 && donor[0] != nil {
		r = donor[0]
	} else {
		r = new(RNG)
	}
	r.s = s
	return r
}

// NewStream derives an independent generator from r identified by name.
// Deriving the same name twice from generators in the same state yields
// identical streams; different names yield decorrelated streams. A donor
// is reseeded as NewRNG reseeds one.
func (r *RNG) NewStream(name string, donor ...*RNG) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return NewRNG(h^r.Uint64(), donor...)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Next returns the state one step on and the 64 uniformly distributed
// bits that step yields. It is the generator's only step.
func (s State) Next() (State, uint64) {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return s, result
}

// State returns r's current state.
func (r *RNG) State() State { return r.s }

// SetState makes s r's state; r then draws what s would draw next.
func (r *RNG) SetState(s State) { r.s = s }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	var x uint64
	r.s, x = r.s.Next()
	return x
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
	return Unit(r.Uint64())
}

// Unit maps 64 drawn bits to the uniform float in [0, 1) that Float64
// returns for them: their top 53 bits, scaled by 2^-53, which is exact.
func Unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Threshold is Bool(p) as an integer comparison on drawn bits:
// NewThreshold(p).Bool(x) is Unit(x) < p, for every x and every p.
type Threshold uint64

// NewThreshold returns the threshold of probability p, ceil(p * 2^53).
// Unit(x) is k * 2^-53 exactly, for the integer k = x>>11 < 2^53, and
// p * 2^53 is exact too (a power-of-two scale, and p only grows), so
// k * 2^-53 < p holds exactly when k < ceil(p * 2^53). A p at or above 1
// passes every k; a p at or below 0, and NaN, which compares false with
// everything, pass none. Those are settled before the conversion, since
// Go's uint64 of NaN, a negative or a huge float is not defined to be 0
// or saturate (it is 2^63 on amd64).
func NewThreshold(p float64) Threshold {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return Threshold(math.Ceil(p * (1 << 53)))
}

// Bool reports whether the draw x falls under the threshold.
func (t Threshold) Bool(x uint64) bool {
	return x>>11 < uint64(t)
}

// Exp returns an exponentially distributed value with the given mean.
// The draw k = Uint64()>>11 is rejected when it is 0, the one point where
// Float64 is 0 and log is -Inf, and then scaled as Float64 scales it.
func (r *RNG) Exp(mean float64) float64 {
	x := r.Uint64()
	for x>>11 == 0 {
		x = r.Uint64()
	}
	return -mean * math.Log(Unit(x))
}

// ZipfTable is the cumulative distribution of a Zipf-like law over [0, n)
// with exponent s. Building it costs one math.Pow per entry; it is never
// written afterwards, so any number of samplers, on any goroutines, may
// share one.
type ZipfTable struct {
	cdf []float64
	s   float64
}

// NewZipfTable builds the Zipf(n, s) table. Given a table no sampler
// reads any more, it returns that one: as it is when it already is
// Zipf(n, s), else refilled in its own storage when that holds n entries.
func NewZipfTable(n int, s float64, donor ...*ZipfTable) *ZipfTable {
	if n <= 0 {
		panic("sim: NewZipfTable called with non-positive n")
	}
	t := &ZipfTable{}
	if len(donor) > 0 && donor[0] != nil {
		if t = donor[0]; len(t.cdf) == n && math.Float64bits(t.s) == math.Float64bits(s) {
			return t
		}
	}
	t.s = s
	cdf := t.cdf[:0]
	if cap(cdf) < n {
		cdf = make([]float64, n)
	}
	cdf = cdf[:n]
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	t.cdf = cdf
	return t
}

// Sampler returns a sampler over the table drawing from rng. A donor
// sampler no one draws from any more is returned instead of a new one.
func (t *ZipfTable) Sampler(rng *RNG, donor ...*Zipf) *Zipf {
	var z *Zipf
	if len(donor) > 0 && donor[0] != nil {
		z = donor[0]
	} else {
		z = new(Zipf)
	}
	*z = Zipf{cdf: t.cdf, rng: rng}
	return z
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
