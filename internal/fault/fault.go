// Package fault implements deterministic physical-fault injection for
// the FSOI network. The paper's Table 1 link budget leaves a finite
// margin (claims table1.snr and table1.ber in internal/exp); this
// package models what happens when that margin erodes and which
// protocol mechanisms absorb the damage. Four fault models are provided:
//
//  1. BER-derived bit errors: a configurable link-margin penalty (dB) is
//     subtracted from the Table 1 Q factor and the resulting bit-error
//     rate — not a free parameter — corrupts packets per slot.
//  2. VCSEL aging/failure: each transmit VCSEL fails independently at
//     start-of-life with a configurable probability; a lane that loses
//     transmitters serializes over the survivors and its effective data
//     rate drops (the slot stretches instead of the lane wedging).
//  3. Thermal power droop: junction heating reduces VCSEL output power.
//     The steady-state temperature field comes from internal/thermal for
//     the configured cooling technology; each node's margin penalty ramps
//     toward DroopDBPerK x (its steady-state rise) with an exponential
//     time constant, so hot corner nodes degrade first.
//  4. Confirmation-channel drops: the collision-free confirmation beam
//     is still a physical link; a lost confirmation forces the sender
//     onto the confirmation-timeout retransmission path in internal/core.
//
// All randomness flows from named sim.RNG streams derived from one
// injector stream, preserving the repository's bit-identical-rerun
// discipline. A zero Config reports Enabled() == false and must not be
// attached at all: fault injection is strictly pay-for-what-you-use.
// An Injector attaches to internal/core through its FaultModel
// interface.
package fault

import (
	"fmt"
	"math"
	"strconv"

	"fsoi/internal/core"
	"fsoi/internal/obs"
	"fsoi/internal/optics"
	"fsoi/internal/sim"
	"fsoi/internal/stats"
	"fsoi/internal/thermal"
)

// ThermalSpec parameterizes the time-varying power-droop model.
type ThermalSpec struct {
	// Enabled switches the droop model on.
	Enabled bool
	// Cooling selects the §3.3 heat-removal technology whose steady-state
	// temperature field drives the droop.
	Cooling thermal.Cooling
	// PowerPerNodeW is the per-node dissipation fed to the thermal solver.
	PowerPerNodeW float64
	// TauCycles is the exponential time constant of the temperature ramp.
	TauCycles float64
	// DroopDBPerK converts a node's temperature rise over ambient into a
	// link-margin penalty (VCSEL L-I rollover: output power drops as the
	// junction heats, arXiv:1512.07491 measures ~0.02-0.05 dB/K).
	DroopDBPerK float64
}

// Config selects the fault models to inject. The zero value injects
// nothing and must not be attached (see Enabled).
type Config struct {
	// MarginPenaltyDB is a static link-margin penalty subtracted from the
	// Table 1 Q factor (in the optical 10*log10(Q) convention). The
	// penalized Q yields the injected bit-error rate.
	MarginPenaltyDB float64
	// VCSELFailProb is the independent start-of-life failure probability
	// of each transmit VCSEL. At least one VCSEL per lane survives: a
	// fully dark lane is a dead node, out of scope for graceful
	// degradation.
	VCSELFailProb float64
	// ConfirmDropProb is the probability that the confirmation beam for a
	// cleanly received packet is lost.
	ConfirmDropProb float64
	// Thermal adds the time-varying droop penalty on top of
	// MarginPenaltyDB.
	Thermal ThermalSpec
}

// Enabled reports whether any fault model is active. Callers must skip
// injector construction entirely when false so that fault-free runs stay
// bit-identical to builds without this package.
func (c Config) Enabled() bool {
	return !isUnset(c.MarginPenaltyDB) || !isUnset(c.VCSELFailProb) || !isUnset(c.ConfirmDropProb) || c.Thermal.Enabled
}

// isUnset reports whether a float config field is at its zero value, which
// turns its fault model off: such values are assigned, never computed, so
// zero is exact.
func isUnset(v float64) bool {
	return v == 0 //lint:allow floateq zero-value-off sentinel on an assigned config field
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.MarginPenaltyDB < 0:
		return fmt.Errorf("fault: negative margin penalty %g dB", c.MarginPenaltyDB)
	case c.VCSELFailProb < 0 || c.VCSELFailProb >= 1:
		return fmt.Errorf("fault: VCSEL failure probability %g outside [0, 1)", c.VCSELFailProb)
	case c.ConfirmDropProb < 0 || c.ConfirmDropProb >= 1:
		return fmt.Errorf("fault: confirmation drop probability %g outside [0, 1)", c.ConfirmDropProb)
	case c.Thermal.Enabled && c.Thermal.TauCycles <= 0:
		return fmt.Errorf("fault: thermal ramp needs a positive time constant")
	case c.Thermal.Enabled && c.Thermal.PowerPerNodeW <= 0:
		return fmt.Errorf("fault: thermal ramp needs positive per-node power")
	case c.Thermal.Enabled && c.Thermal.DroopDBPerK < 0:
		return fmt.Errorf("fault: negative droop coefficient")
	}
	return nil
}

// berEpochCycles quantizes the thermal ramp: the per-node BER table is
// recomputed once per epoch rather than per packet. The ramp's time
// constants are >= 10k cycles in any physical scenario, so 4096-cycle
// quantization is invisible to the results while keeping the hot path to
// a table lookup.
const berEpochCycles = 4096

// Injector implements core.FaultModel: it perturbs an FSOI network
// according to its Config, deterministically under the stream it was
// built with.
type Injector struct {
	cfg   Config
	net   core.Config
	baseQ float64 // Table 1 Q factor before any penalty

	// confirmRNG is indexed by the *destination* node: each receiver
	// draws DropConfirm from a stream of its own, as the network draws
	// from per-node streams; one stream would interleave the receivers'
	// draws and move every result.
	confirmRNG []*sim.RNG

	// failed[lane][node] transmit VCSELs; ext[lane][node] extra
	// serialization cycles from transmitting over the survivors.
	// Both are written once at construction and read-only afterwards.
	failed [2][]int
	ext    [2][]int

	// riseK[node] is the steady-state temperature rise over ambient.
	riseK []float64

	// berEpoch[node]/berCache[node] memoize the injected BER per node:
	// it is the transmitter's, whose temperature rise and margin are its
	// own.
	berEpoch []sim.Cycle // epoch the entry was computed for (-1 = never)
	berCache []float64   // per-node injected BER
}

// New builds an injector for a network configuration. The rng must be a
// dedicated stream (conventionally parent.NewStream("fault")); New
// derives one sub-stream per fault model so the models stay decorrelated
// and insertion-order independent. It panics on an invalid Config —
// configs are produced by code, not user input.
func New(cfg Config, netCfg core.Config, rng *sim.RNG) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	inj := &Injector{
		cfg:      cfg,
		net:      netCfg,
		baseQ:    optics.PaperLink().Budget().QFactor,
		berEpoch: make([]sim.Cycle, netCfg.Nodes),
		berCache: make([]float64, netCfg.Nodes),
	}
	confirmBase := rng.NewStream("confirm")
	inj.confirmRNG = make([]*sim.RNG, netCfg.Nodes)
	for i := range inj.confirmRNG {
		inj.confirmRNG[i] = confirmBase.NewStream("node-" + strconv.Itoa(i))
		inj.berEpoch[i] = -1
	}
	inj.drawVCSELFailures(rng.NewStream("vcsel"))
	if cfg.Thermal.Enabled {
		inj.solveThermal()
	}
	return inj
}

// drawVCSELFailures ages every transmit VCSEL once at start-of-life and
// precomputes the per-node slot extension of each lane.
func (inj *Injector) drawVCSELFailures(rng *sim.RNG) {
	lanes := [2]struct {
		lane   core.Lane
		vcsels int
	}{
		{core.LaneMeta, inj.net.MetaVCSELs},
		{core.LaneData, inj.net.DataVCSELs},
	}
	for _, l := range lanes {
		inj.failed[l.lane] = make([]int, inj.net.Nodes)
		inj.ext[l.lane] = make([]int, inj.net.Nodes)
	}
	for node := 0; node < inj.net.Nodes; node++ {
		for _, l := range lanes {
			dead := 0
			for v := 0; v < l.vcsels; v++ {
				if inj.cfg.VCSELFailProb > 0 && rng.Bool(inj.cfg.VCSELFailProb) {
					dead++
				}
			}
			if dead >= l.vcsels {
				dead = l.vcsels - 1 // the last survivor keeps the lane alive
			}
			inj.failed[l.lane][node] = dead
			if dead > 0 {
				degraded := inj.net
				if l.lane == core.LaneMeta {
					degraded.MetaVCSELs -= dead
				} else {
					degraded.DataVCSELs -= dead
				}
				inj.ext[l.lane][node] = degraded.SlotCycles(l.lane) - inj.net.SlotCycles(l.lane)
			}
		}
	}
}

// solveThermal computes each node's steady-state temperature rise from
// the configured cooling technology and per-node power.
func (inj *Injector) solveThermal() {
	dim := 1
	for dim*dim < inj.net.Nodes {
		dim++
	}
	res := thermal.ForCooling(inj.cfg.Thermal.Cooling, dim).
		Solve(thermal.UniformPower(dim, optics.Watts(inj.cfg.Thermal.PowerPerNodeW)))
	inj.riseK = make([]float64, inj.net.Nodes)
	for i := range inj.riseK {
		inj.riseK[i] = res.Temps[i%len(res.Temps)] - res.Ambient
	}
}

// penaltyDB returns a node's total margin penalty at the given cycle.
func (inj *Injector) penaltyDB(node int, now sim.Cycle) optics.DB {
	p := inj.cfg.MarginPenaltyDB
	if inj.cfg.Thermal.Enabled {
		ramp := 1 - math.Exp(-float64(now)/inj.cfg.Thermal.TauCycles)
		p += inj.cfg.Thermal.DroopDBPerK * inj.riseK[node] * ramp
	}
	return optics.DB(p)
}

// berFor derives the injected bit-error rate from the Table 1 Q factor
// under the node's current margin penalty: Q' = Q * 10^(-penalty/10)
// (the optical SNR-dB convention used throughout internal/optics).
func (inj *Injector) berFor(node int, now sim.Cycle) float64 {
	q := inj.baseQ * inj.penaltyDB(node, now).Ratio()
	ber := optics.BERFromQ(q)
	if ber > 0.5 {
		ber = 0.5
	}
	return ber
}

// BitErrorRate implements core.FaultModel. It serves from the sender's
// epoch cache entry, recomputed when the thermal ramp crosses an epoch
// boundary, exactly once when the ramp is off.
func (inj *Injector) BitErrorRate(src int, now sim.Cycle) float64 {
	if !inj.cfg.Thermal.Enabled {
		if inj.berEpoch[src] < 0 {
			inj.berCache[src] = inj.berFor(src, 0)
			inj.berEpoch[src] = 0
		}
		return inj.berCache[src]
	}
	epoch := now / berEpochCycles
	if epoch != inj.berEpoch[src] {
		inj.berCache[src] = inj.berFor(src, epoch*berEpochCycles)
		inj.berEpoch[src] = epoch
	}
	return inj.berCache[src]
}

// SlotExtension implements core.FaultModel: the extra serialization
// cycles node src pays on lane l after its VCSEL failures.
func (inj *Injector) SlotExtension(src int, l core.Lane) int {
	return inj.ext[l][src]
}

// DropConfirm implements core.FaultModel: whether this packet's
// confirmation beam is lost. The draw comes from the receiver's own
// stream.
func (inj *Injector) DropConfirm(src, dst int, now sim.Cycle) bool {
	if isUnset(inj.cfg.ConfirmDropProb) { // no draw: the guard also preserves RNG stream genealogy
		return false
	}
	return inj.confirmRNG[dst].Bool(inj.cfg.ConfirmDropProb)
}

// FailedVCSELs reports the total transmit VCSELs lost to aging.
func (inj *Injector) FailedVCSELs() int {
	total := 0
	for _, lane := range inj.failed {
		for _, n := range lane {
			total += n
		}
	}
	return total
}

// DegradedNodes reports how many nodes lost at least one VCSEL.
func (inj *Injector) DegradedNodes() int {
	n := 0
	for node := 0; node < inj.net.Nodes; node++ {
		if inj.failed[core.LaneMeta][node]+inj.failed[core.LaneData][node] > 0 {
			n++
		}
	}
	return n
}

// AnnotateTrace stamps the injector's start-of-life VCSEL-failure census
// into a lifecycle recorder as KindFault events at cycle 0, one per
// afflicted (node, lane), so a trace file is self-describing about the
// physical state the packets flew through. Nodes are walked in index
// order and lanes meta-then-data, so the annotation order is
// deterministic. A nil recorder is a no-op.
func (inj *Injector) AnnotateTrace(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	for node := 0; node < inj.net.Nodes; node++ {
		for _, l := range [2]core.Lane{core.LaneMeta, core.LaneData} {
			if n := inj.failed[l][node]; n > 0 {
				rec.Emit(obs.Event{
					Kind: obs.KindFault, Src: int32(node), Dst: -1,
					Lane: int8(l), Class: uint8(l), Aux: int64(n),
				})
			}
		}
	}
}

// Counters exports the injector's static fault census as a stats
// counter set; the per-event counters live in core.Stats.
func (inj *Injector) Counters() *stats.CounterSet {
	c := stats.NewCounterSet()
	c.Inc("vcsels_failed", int64(inj.FailedVCSELs()))
	c.Inc("nodes_degraded", int64(inj.DegradedNodes()))
	c.Inc("margin_penalty_mdb", int64(inj.cfg.MarginPenaltyDB*1000))
	return c
}
