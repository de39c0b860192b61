package optics

import (
	"fmt"
	"math"
	"strings"
)

// LinkConfig assembles a complete single-bit FSOI link: one VCSEL, one
// free-space route, one photodetector, and the transceiver circuits.
type LinkConfig struct {
	VCSEL    VCSEL
	Path     FreeSpacePath
	PD       Photodetector
	TIA      TIA
	Driver   Driver
	DataRate float64 // bit/s target (paper: 40e9)
	CoreHz   float64 // processor clock for cycle conversions (paper: 3.3e9)
}

// PaperLink returns the Table 1 link: diagonal 2 cm route at 40 Gbps.
func PaperLink() LinkConfig {
	return LinkConfig{
		VCSEL:    PaperVCSEL(),
		Path:     PaperPath(),
		PD:       PaperPhotodetector(),
		TIA:      PaperTIA(),
		Driver:   PaperDriver(),
		DataRate: 40e9,
		CoreHz:   3.3e9,
	}
}

// LinkReport carries every derived quantity in Table 1.
type LinkReport struct {
	// Optics.
	PathLoss       PathLossBreakdown
	TxPowerOneW    Watts // optical power for a one, at the VCSEL
	TxPowerZeroW   Watts
	RxPowerOneW    Watts // at the photodetector
	RxPowerZeroW   Watts
	PhotocurrentI1 float64 // A
	PhotocurrentI0 float64 // A

	// Noise and signal quality.
	NoiseOneRMS  float64 // A, shot + circuit on a one
	NoiseZeroRMS float64 // A
	QFactor      float64
	BER          float64
	OpticalSNRdB DB      // 10*log10(Q) convention for optical links
	JitterRMS    float64 // s, noise-to-jitter conversion at the sampling edge

	// Rate support.
	ChainBandwidth float64 // Hz, equalized transmit chain + receiver
	MaxDataRate    float64 // bit/s NRZ capability
	RateSupported  bool
	BitsPerCycle   int // line bits per core cycle per VCSEL

	// Power.
	TxActivePowerW  Watts // driver + VCSEL while transmitting
	TxStandbyPowerW Watts
	RxPowerW        Watts
	EnergyPerBitTxJ Joules
	EnergyPerBitRxJ Joules
}

// Budget evaluates the link from device first principles.
func (c LinkConfig) Budget() LinkReport {
	var r LinkReport
	r.PathLoss = c.Path.PathLoss()
	t := r.PathLoss.TotalDB.Ratio()

	r.TxPowerOneW, r.TxPowerZeroW = c.VCSEL.LevelPowers()
	r.RxPowerOneW = r.TxPowerOneW.Scale(t)
	r.RxPowerZeroW = r.TxPowerZeroW.Scale(t)
	r.PhotocurrentI1 = c.PD.Photocurrent(r.RxPowerOneW)
	r.PhotocurrentI0 = c.PD.Photocurrent(r.RxPowerZeroW)

	circuit := c.TIA.ThermalNoise()
	r.NoiseOneRMS = math.Hypot(circuit, c.TIA.ShotNoise(r.PhotocurrentI1))
	r.NoiseZeroRMS = math.Hypot(circuit, c.TIA.ShotNoise(r.PhotocurrentI0))
	r.QFactor = (r.PhotocurrentI1 - r.PhotocurrentI0) / (r.NoiseOneRMS + r.NoiseZeroRMS)
	r.BER = BERFromQ(r.QFactor)
	r.OpticalSNRdB = DB(10 * math.Log10(r.QFactor))

	// The driver equalizes the VCSEL parasitic pole, so the chain
	// bandwidth is the driver and TIA in cascade.
	r.ChainBandwidth = 1 / math.Sqrt(1/(c.Driver.Bandwidth*c.Driver.Bandwidth)+1/(c.TIA.Bandwidth*c.TIA.Bandwidth))
	// NRZ with decision-feedback equalization in the limiting amplifier
	// needs roughly 0.65x the bit rate in bandwidth.
	r.MaxDataRate = r.ChainBandwidth / 0.65
	r.RateSupported = r.MaxDataRate >= c.DataRate
	r.BitsPerCycle = int(c.DataRate / c.CoreHz)

	// Jitter: amplitude noise divided by the signal slew at the decision
	// edge (10-90% rise ~ 0.35/BW).
	rise := 0.35 / r.ChainBandwidth
	r.JitterRMS = (r.NoiseOneRMS + r.NoiseZeroRMS) / (r.PhotocurrentI1 - r.PhotocurrentI0) * rise

	r.TxActivePowerW = c.Driver.SupplyPower + c.VCSEL.ElectricalPower()
	r.TxStandbyPowerW = c.Driver.StandbyPower
	r.RxPowerW = c.TIA.SupplyPower
	r.EnergyPerBitTxJ = r.TxActivePowerW.Per(c.DataRate)
	r.EnergyPerBitRxJ = r.RxPowerW.Per(c.DataRate)
	return r
}

// String renders the report in the shape of Table 1.
func (r LinkReport) String() string {
	var b strings.Builder
	w2 := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w2("Free-Space Optics")
	w2("  Optical path loss        %.2f dB (clip %.3f, spread %.2f, mirrors %.2f, substrate %.2f)",
		r.PathLoss.TotalDB, r.PathLoss.TxClipDB, r.PathLoss.SpreadingDB, r.PathLoss.MirrorDB, r.PathLoss.SubstrateDB)
	w2("  Beam radius at receiver  %.0f um", r.PathLoss.BeamRadiusRx*1e6)
	w2("Transmitter & Receiver")
	w2("  TX power (1/0)           %.1f / %.1f uW", r.TxPowerOneW*1e6, r.TxPowerZeroW*1e6)
	w2("  RX photocurrent (1/0)    %.1f / %.1f uA", r.PhotocurrentI1*1e6, r.PhotocurrentI0*1e6)
	w2("Link")
	w2("  Chain bandwidth          %.1f GHz (max NRZ %.1f Gbps, supported=%v)",
		r.ChainBandwidth/1e9, r.MaxDataRate/1e9, r.RateSupported)
	w2("  Signal-to-noise ratio    %.1f dB (Q=%.2f)", r.OpticalSNRdB, r.QFactor)
	w2("  Bit-error-rate (BER)     %.1e", r.BER)
	w2("  Cycle-to-cycle jitter    %.2f ps", r.JitterRMS*1e12)
	w2("  Bits per core cycle      %d", r.BitsPerCycle)
	w2("Power Consumption")
	w2("  Transmitter (active)     %.2f mW", r.TxActivePowerW*1e3)
	w2("  Transmitter (standby)    %.2f mW", r.TxStandbyPowerW*1e3)
	w2("  Receiver                 %.2f mW", r.RxPowerW*1e3)
	w2("  Energy per bit (TX/RX)   %.3f / %.3f pJ", r.EnergyPerBitTxJ*1e12, r.EnergyPerBitRxJ*1e12)
	return b.String()
}

// PhaseArray models the beam-steering transmitter used at 64 nodes: k
// emitters acting as a single steerable source. Steering to a new target
// costs an off-axis pointing loss that grows with steering angle; the
// phase-register reload delay is core.Config.PhaseSetup.
type PhaseArray struct {
	Wavelength  float64 // m
	MaxSteerRad float64 // usable steering half-angle
}

// PaperPhaseArray returns the 64-node transmitter.
func PaperPhaseArray() PhaseArray {
	return PhaseArray{Wavelength: 980e-9, MaxSteerRad: 0.35}
}

// SteeringLossDB returns the scan loss at the given off-axis angle,
// the standard cos^3 element-pattern roll-off.
func (a PhaseArray) SteeringLossDB(angle float64) DB {
	if math.Abs(angle) > a.MaxSteerRad {
		return DB(math.Inf(1))
	}
	return DBFromRatio(math.Pow(math.Cos(angle), 3))
}
