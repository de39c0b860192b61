// Package thermal models the §3.3 heat-removal question: the free-space
// optical layer sits where a conventional heat sink would, so heat must
// leave through microchannel liquid cooling on the back side of each die
// in the 3-D stack, or laterally through high-conductivity spreaders
// (diamond / carbon nanotubes / graphene) to the stack's periphery.
//
// The model is a steady-state thermal resistance network over the node
// grid: each node injects its power, conducts vertically to the coolant
// through a per-cooling-technology resistance, and laterally to its grid
// neighbours through a spreading resistance. Temperatures come from a
// Jacobi relaxation of the resulting linear system — a deliberately
// HotSpot-shaped (if far smaller) substrate.
package thermal

import (
	"fmt"
	"math"

	"fsoi/internal/optics"
)

// Cooling selects the vertical heat-extraction technology.
type Cooling int

// Cooling technologies from §3.3.
const (
	// AirCooled is the conventional heat sink — obstructed by the
	// free-space layer, so its vertical resistance is poor.
	AirCooled Cooling = iota
	// Microchannel is liquid cooling through back-side channels fed by
	// fluidic TSVs.
	Microchannel
	// DiamondSpreader keeps air cooling but adds a diamond heat
	// spreader, cutting the lateral resistance (~2000 W/m·K).
	DiamondSpreader
)

// String names the technology.
func (c Cooling) String() string {
	switch c {
	case AirCooled:
		return "air"
	case Microchannel:
		return "microchannel"
	case DiamondSpreader:
		return "diamond-spreader"
	}
	return fmt.Sprintf("Cooling(%d)", int(c))
}

// Config parameterizes the network.
type Config struct {
	Dim     int     // nodes per die edge
	Ambient float64 // coolant / ambient temperature, K
	// RVertical is the junction-to-coolant resistance per node, K/W.
	RVertical float64
	// RLateral is the node-to-neighbour conduction resistance, K/W.
	RLateral float64
}

// ForCooling returns the calibrated configuration for a technology on a
// dim x dim grid. Resistances scale with node area (a 64-node die has
// smaller, hotter tiles).
func ForCooling(c Cooling, dim int) Config {
	scale := float64(dim*dim) / 16        // per-node resistance grows as tiles shrink
	cfg := Config{Dim: dim, Ambient: 318} // 45 C coolant/inlet
	switch c {
	case AirCooled:
		// The free-space layer displaces the heat sink: heat detours to
		// the package sides.
		cfg.RVertical = 3.0 * scale
		cfg.RLateral = 2.0
	case Microchannel:
		cfg.RVertical = 0.6 * scale
		cfg.RLateral = 2.0
	case DiamondSpreader:
		cfg.RVertical = 3.0 * scale
		cfg.RLateral = 0.25 // diamond: 1000-2200 W/m·K vs silicon's ~150
	}
	return cfg
}

// Result is the steady-state temperature field.
type Result struct {
	Temps   []float64 // K, per node
	MaxK    float64
	MeanK   float64
	Ambient float64
}

// MaxC reports the hottest junction in Celsius.
func (r Result) MaxC() float64 { return r.MaxK - 273.15 }

// LeakageFactor converts the mean temperature into the multiplicative
// leakage scaling used by the power model (coeff per kelvin above
// nominal).
func (r Result) LeakageFactor(nominalK, coeffPerK float64) float64 {
	return 1 + coeffPerK*(r.MeanK-nominalK)
}

// Solve computes the steady-state temperatures for the given per-node
// power map by Jacobi relaxation:
//
//	(T[i]-Tamb)/Rv + sum_j (T[i]-T[j])/Rl = P[i]
func (c Config) Solve(powerMap []optics.Watts) Result {
	n := c.Dim * c.Dim
	if len(powerMap) != n {
		panic(fmt.Sprintf("thermal: power map has %d entries, grid needs %d", len(powerMap), n))
	}
	// The Jacobi kernel mixes kelvins, K/W conductances, and watts in
	// every accumulator; units are enforced at the API boundary and the
	// kernel runs on bare float64s.
	power := make([]float64, n)
	for i := range powerMap {
		power[i] = float64(powerMap[i]) //lint:allow units solver kernel boundary: inside, W mixes with K and K/W by design
	}
	t := make([]float64, n)
	next := make([]float64, n)
	for i := range t {
		t[i] = c.Ambient + power[i]*c.RVertical // vertical-only initial guess
	}
	gv := 1 / c.RVertical
	gl := 1 / c.RLateral
	for iter := 0; iter < 10000; iter++ {
		delta := 0.0
		for i := 0; i < n; i++ {
			sumG := gv
			sumGT := gv*c.Ambient + power[i]
			for _, j := range c.neighbors(i) {
				sumG += gl
				sumGT += gl * t[j]
			}
			next[i] = sumGT / sumG
			delta += math.Abs(next[i] - t[i])
		}
		t, next = next, t
		if delta < 1e-9 {
			break
		}
	}
	res := Result{Temps: t, Ambient: c.Ambient}
	sum := 0.0
	for _, v := range t {
		if v > res.MaxK {
			res.MaxK = v
		}
		sum += v
	}
	res.MeanK = sum / float64(n)
	return res
}

// neighbors lists the grid neighbours of node i.
func (c Config) neighbors(i int) []int {
	var out []int
	x, y := i%c.Dim, i/c.Dim
	if x > 0 {
		out = append(out, i-1)
	}
	if x < c.Dim-1 {
		out = append(out, i+1)
	}
	if y > 0 {
		out = append(out, i-c.Dim)
	}
	if y < c.Dim-1 {
		out = append(out, i+c.Dim)
	}
	return out
}

// UniformPower builds a power map with the same wattage per node.
func UniformPower(dim int, perNode optics.Watts) []optics.Watts {
	p := make([]optics.Watts, dim*dim)
	for i := range p {
		p[i] = perNode
	}
	return p
}
