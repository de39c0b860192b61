// Typed physical units for the physics layer. The quantities that flow
// between internal/optics, internal/power, and internal/thermal — loss
// budgets in dB, absolute optical levels in dBm, electrical powers in
// watts, event energies in joules, wall-clock spans in seconds — are
// defined types over float64, so the fsoilint "units" pass can reject
// cross-unit arithmetic (dB+dBm, W+J, cycles×Hz) at type-check time.
//
// Conventions:
//
//   - DB is a relative power ratio on the log scale; positive values are
//     loss. DB values add. DBm is an absolute level referenced to 1 mW;
//     two DBm values never add, but a DB loss applies to a DBm level
//     through Plus.
//   - Watts and Joules are linear; they scale by dimensionless factors
//     (Scale) and convert into each other only through Seconds
//     (Times, Over) or a bit rate (Per).
//   - Conversions that tag a bare float64 with a unit (Watts(x)) are
//     free anywhere; conversions that strip or relabel a unit are
//     confined to this file, which the units analyzer exempts — every
//     other crossing needs a //lint:allow units justification.
//
// Every helper body is a single commutation of the expression it
// replaced, never a re-association, so adopting the types keeps all
// experiment outputs byte-identical (IEEE-754 * and + commute exactly
// but do not associate).

package optics

import (
	"math"

	"fsoi/internal/sim"
)

// DB is a relative optical power ratio in decibels; positive is loss.
type DB float64

// DBm is an absolute optical power level in dB referenced to 1 mW.
type DBm float64

// Watts is electrical or optical power.
type Watts float64

// Joules is energy.
type Joules float64

// Seconds is a wall-clock span.
type Seconds float64

// DBFromRatio converts a power ratio (<= 1 for loss) to decibels of
// loss (positive for loss).
func DBFromRatio(ratio float64) DB {
	if ratio <= 0 {
		return DB(math.Inf(1))
	}
	return DB(-10 * math.Log10(ratio))
}

// Ratio converts a loss in dB (positive) back to a power ratio.
func (d DB) Ratio() float64 {
	return math.Pow(10, -float64(d)/10)
}

// Scale multiplies a per-element loss by an element count.
func (d DB) Scale(k float64) DB { return DB(float64(d) * k) }

// Plus applies a dB loss (or, negated, a gain) to an absolute level.
// This is the only sanctioned way DB and DBm meet.
func (p DBm) Plus(loss DB) DBm { return p + DBm(loss) }

// MilliWatts converts an absolute level back to linear milliwatts.
func (p DBm) MilliWatts() float64 {
	return math.Pow(10, float64(p)/10)
}

// Scale multiplies a power by a dimensionless factor (a count, a duty
// cycle).
func (w Watts) Scale(k float64) Watts { return Watts(float64(w) * k) }

// Times integrates a power over a span: W × s = J.
func (w Watts) Times(s Seconds) Joules { return Joules(float64(w) * float64(s)) }

// Per spreads a power over a bit rate: W / (bit/s) = J per bit.
func (w Watts) Per(rateHz float64) Joules { return Joules(float64(w) / rateHz) }

// Scale multiplies an energy by a dimensionless factor.
func (j Joules) Scale(k float64) Joules { return Joules(float64(j) * k) }

// Over averages an energy over a span: J / s = W.
func (j Joules) Over(s Seconds) Watts { return Watts(float64(j) / float64(s)) }

// CycleSeconds converts a simulated cycle count at the given clock into
// wall time. It is the one sanctioned cycles→seconds crossing; dividing
// a bare float64(Cycle) by a frequency elsewhere is a units finding.
func CycleSeconds(c sim.Cycle, hz float64) Seconds {
	return Seconds(float64(c) / hz)
}
