// Package power models the energy accounting behind Figure 8:
// Wattch-style core and cache event energies, Orion-style mesh router
// energies, the optical signaling-chain energies of Table 1, and a
// temperature-scaled leakage term. The absolute constants target 45 nm
// at 3.3 GHz; Figure 8 depends on the ratios, which these constants
// preserve.
//
// All energies and powers carry the optics unit types (Joules, Watts,
// Seconds), so the fsoilint units pass rejects W+J and cycles/Hz
// mistakes at type-check time. Every arithmetic rewrite below is a
// single operand commutation of the original expression (never a
// re-association), keeping Figure 8 byte-identical.
package power

import (
	"fsoi/internal/optics"
	"fsoi/internal/sim"
)

// Params collects the per-event energies and static powers of the
// modeled system.
type Params struct {
	// Cores and caches (Wattch-style).
	CoreEnergyPerOp   optics.Joules // dynamic energy per committed operation
	CoreIdlePower     optics.Watts  // clock + unmanaged switching per core
	L1AccessEnergy    optics.Joules
	L2AccessEnergy    optics.Joules
	LeakagePerNode    optics.Watts // temperature-adjusted static power per node
	LeakageTempCoeff  float64      // fractional leakage growth per kelvin
	NominalTempKelvin float64
	HotTempKelvin     float64 // operating hotspot estimate

	// Electrical mesh network (Orion-style).
	RouterEnergyPerFlitHop optics.Joules // buffers + arbitration + crossbar
	LinkEnergyPerFlitHop   optics.Joules
	RouterStaticPower      optics.Watts // per router: clocking + leakage

	// Optical network (Table 1 signaling chain).
	OpticalTxEnergyPerBit optics.Joules
	OpticalRxEnergyPerBit optics.Joules
	OpticalRxStatic       optics.Watts // per always-on receiver
	OpticalTxStandby      optics.Watts // per lane in standby

	CoreGHz float64
}

// PaperPower returns the 45 nm calibration.
func PaperPower() Params {
	return Params{
		CoreEnergyPerOp:   1.8e-9,
		CoreIdlePower:     3.6,
		L1AccessEnergy:    0.05e-9,
		L2AccessEnergy:    0.35e-9,
		LeakagePerNode:    2.4,
		LeakageTempCoeff:  0.012,
		NominalTempKelvin: 330,
		HotTempKelvin:     355,

		// An aggressive 3.3 GHz 4-stage router (the Alpha 21364 router
		// occupied 20% of the core+L1 area; its share of clocking and
		// leakage is correspondingly large).
		RouterEnergyPerFlitHop: 30e-12,
		LinkEnergyPerFlitHop:   10e-12,
		RouterStaticPower:      0.9,

		OpticalTxEnergyPerBit: 0.182e-12,
		OpticalRxEnergyPerBit: 0.105e-12,
		OpticalRxStatic:       4.2e-3,
		OpticalTxStandby:      0.43e-3,

		CoreGHz: 3.3,
	}
}

// seconds converts cycles to wall time.
func (p Params) seconds(c sim.Cycle) optics.Seconds {
	return optics.CycleSeconds(c, p.CoreGHz*1e9)
}

// Breakdown is the Figure 8 energy decomposition.
type Breakdown struct {
	Network   optics.Joules // interconnect dynamic + static
	CoreCache optics.Joules // core + cache dynamic + core idle
	Leakage   optics.Joules
}

// Total sums the components.
func (b Breakdown) Total() optics.Joules { return b.Network + b.CoreCache + b.Leakage }

// Activity is the platform-independent activity record a run produces.
type Activity struct {
	Cycles     sim.Cycle
	Nodes      int
	Ops        int64 // committed core operations
	L1Accesses int64
	L2Accesses int64

	// Mesh-only.
	FlitHops int64 // flits x hops traversed (including ejection hop)
	Routers  int

	// FSOI-only.
	OpticalBitsTx    int64 // line bits transmitted including retries
	OpticalBitsRx    int64
	ConfirmBits      int64
	OpticalLanes     int // transmit lanes per node (meta + data + confirm)
	OpticalRxPerNode int
	// TxBusyFraction approximates the duty cycle of the transmit lanes
	// (laser driver active vs standby).
	TxBusyFraction float64
}

// leakage returns the temperature-scaled static energy.
func (p Params) leakage(a Activity) optics.Joules {
	scale := 1 + p.LeakageTempCoeff*(p.HotTempKelvin-p.NominalTempKelvin)
	return p.LeakagePerNode.Scale(float64(a.Nodes)).Scale(scale).Times(p.seconds(a.Cycles))
}

// coreCache returns the core + cache dynamic energy plus idle power.
func (p Params) coreCache(a Activity) optics.Joules {
	dynamic := p.CoreEnergyPerOp.Scale(float64(a.Ops)) +
		p.L1AccessEnergy.Scale(float64(a.L1Accesses)) +
		p.L2AccessEnergy.Scale(float64(a.L2Accesses))
	idle := p.CoreIdlePower.Scale(float64(a.Nodes)).Times(p.seconds(a.Cycles))
	return dynamic + idle
}

// MeshEnergy evaluates a run on the electrical mesh.
func (p Params) MeshEnergy(a Activity) Breakdown {
	dyn := (p.RouterEnergyPerFlitHop + p.LinkEnergyPerFlitHop).Scale(float64(a.FlitHops))
	static := p.RouterStaticPower.Scale(float64(a.Routers)).Times(p.seconds(a.Cycles))
	return Breakdown{
		Network:   dyn + static,
		CoreCache: p.coreCache(a),
		Leakage:   p.leakage(a),
	}
}

// FSOIEnergy evaluates a run on the optical interconnect.
func (p Params) FSOIEnergy(a Activity) Breakdown {
	bits := float64(a.OpticalBitsTx + a.ConfirmBits)
	dyn := p.OpticalTxEnergyPerBit.Scale(bits) +
		p.OpticalRxEnergyPerBit.Scale(float64(a.OpticalBitsRx+a.ConfirmBits))
	perNode := p.OpticalRxStatic.Scale(float64(a.OpticalRxPerNode)) +
		p.OpticalTxStandby.Scale(float64(a.OpticalLanes)).Scale(1-a.TxBusyFraction)
	static := perNode.Scale(float64(a.Nodes)).Times(p.seconds(a.Cycles))
	return Breakdown{
		Network:   dyn + static,
		CoreCache: p.coreCache(a),
		Leakage:   p.leakage(a),
	}
}

// AveragePower converts a breakdown back to watts over the run.
func (p Params) AveragePower(b Breakdown, cycles sim.Cycle) optics.Watts {
	s := p.seconds(cycles)
	if s == 0 { //lint:allow floateq exact zero only when cycles is zero; guards the division
		return 0
	}
	return b.Total().Over(s)
}
