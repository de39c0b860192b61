package optics

import "math"

// ElectronCharge is the elementary charge in coulombs.
const ElectronCharge = 1.602176634e-19

// VCSEL models a vertical-cavity surface-emitting laser as used for the
// transmit side of every lane: a threshold current, a slope efficiency
// converting above-threshold current to optical power, and a
// bias/modulation operating point.
type VCSEL struct {
	ThresholdCurrent float64 // A (paper: 0.14 mA)
	SlopeEfficiency  float64 // W/A above threshold
	ForwardVoltage   float64 // V at the operating point (paper: ~2 V)
	ExtinctionRatio  float64 // P1/P0 (paper: 11)
	BiasCurrent      float64 // A average drive current when transmitting (paper: 0.48 mA)
}

// PaperVCSEL returns the device point used throughout the evaluation.
func PaperVCSEL() VCSEL {
	return VCSEL{
		ThresholdCurrent: 0.14e-3,
		SlopeEfficiency:  0.35,
		ForwardVoltage:   2.0,
		ExtinctionRatio:  11,
		BiasCurrent:      0.48e-3,
	}
}

// averagePowerW is the mean emitted optical power at the bias point as
// a bare float64.
func (v VCSEL) averagePowerW() float64 {
	i := v.BiasCurrent - v.ThresholdCurrent
	if i < 0 {
		return 0
	}
	return i * v.SlopeEfficiency
}

// LevelPowers splits the average power into the one/zero levels implied by
// the extinction ratio re: P1 = 2*Pavg*re/(re+1), P0 = P1/re.
func (v VCSEL) LevelPowers() (p1, p0 Watts) {
	avg := v.averagePowerW()
	re := v.ExtinctionRatio
	one := 2 * avg * re / (re + 1)
	return Watts(one), Watts(one / re)
}

// ElectricalPower returns the DC power drawn by the laser itself
// (paper: 0.96 mW = 0.48 mA at 2 V).
func (v VCSEL) ElectricalPower() Watts {
	return Watts(v.BiasCurrent * v.ForwardVoltage)
}

// Photodetector models the resonant-cavity photodiode on the receive side.
type Photodetector struct {
	Responsivity float64 // A/W (paper: 0.5)
	DarkCurrent  float64 // A
}

// PaperPhotodetector returns the evaluation device point.
func PaperPhotodetector() Photodetector {
	return Photodetector{Responsivity: 0.5, DarkCurrent: 5e-9}
}

// Photocurrent converts incident optical power to current. The
// responsivity is the sanctioned optics→electronics dimension crossing
// (A/W), so stripping the watt tag here is the conversion itself.
func (p Photodetector) Photocurrent(power Watts) float64 {
	return p.Responsivity*float64(power) + p.DarkCurrent //lint:allow units responsivity (A/W) is the watt-to-ampere conversion
}

// TIA models the transimpedance amplifier plus limiting amplifier chain.
type TIA struct {
	Bandwidth      float64 // Hz (paper: 36 GHz)
	InputNoiseAmps float64 // A/sqrt(Hz) input-referred current noise density
	SupplyPower    Watts   // for the full receive chain (paper: 4.2 mW)
}

// PaperTIA returns the evaluation receiver chain.
func PaperTIA() TIA {
	return TIA{
		Bandwidth:      36e9,
		InputNoiseAmps: 22e-12,
		SupplyPower:    4.2e-3,
	}
}

// ThermalNoise returns the RMS input-referred circuit noise current over
// the amplifier bandwidth.
func (t TIA) ThermalNoise() float64 {
	return t.InputNoiseAmps * math.Sqrt(t.Bandwidth)
}

// ShotNoise returns the RMS shot-noise current for a given photocurrent
// over the amplifier bandwidth: sqrt(2 q I B).
func (t TIA) ShotNoise(photocurrent float64) float64 {
	if photocurrent < 0 {
		photocurrent = 0
	}
	return math.Sqrt(2 * ElectronCharge * photocurrent * t.Bandwidth)
}

// Driver models the laser driver: its bandwidth gates the modulation rate
// and its supply power dominates transmit energy. The driver includes
// feed-forward equalization that compensates the VCSEL parasitic pole, so
// the transmit chain is driver-bandwidth-limited.
type Driver struct {
	Bandwidth    float64 // Hz (paper: 43 GHz)
	SupplyPower  Watts   // while transmitting (paper: 6.3 mW)
	StandbyPower Watts   // whole transmitter in standby (paper: 0.43 mW)
}

// PaperDriver returns the evaluation driver.
func PaperDriver() Driver {
	return Driver{Bandwidth: 43e9, SupplyPower: 6.3e-3, StandbyPower: 0.43e-3}
}
