package optics

import (
	"fmt"
	"math"
	"strings"
)

// This file holds the worst-case insertion-loss models behind the
// optical-topology frontier sweep (system.Interconnects, exp "frontier").
// The methodology follows the comparative study of on-chip optical
// crossbars in arXiv:1512.07492: for each topology, count the lossy
// elements (ring resonators passed off- and on-resonance, waveguide
// crossings, bends, couplers, broadcast splitters) along the lossiest
// source→destination route, sum their dB contributions, and derive the
// laser power each channel needs so the photodetector still sees its
// sensitivity floor after the worst-case path. Per arXiv:1303.3954 that
// laser power — through the laser's wall-plug efficiency — is what sets
// the interconnect's energy per bit, which is why worst-case loss, not
// average latency, decides which topology survives as node count grows.

// WaveguideDevices collects the silicon-photonics device constants the
// waveguide-crossbar loss models share. The defaults sit at the
// conservative end of the ranges surveyed in arXiv:1512.07492.
type WaveguideDevices struct {
	PropagationDBPerCm float64 // waveguide propagation loss, dB/cm (a density, not a DB)
	CrossingDB         DB      // per waveguide crossing
	BendDB             DB      // per 90° bend
	RingThroughDB      DB      // passing a ring off-resonance
	RingDropDB         DB      // dropped through a ring on-resonance
	CouplerDB          DB      // laser-to-waveguide coupling
	SensitivityDBm     DBm     // photodetector sensitivity floor
	MarginDB           DB      // system margin on top of the budget
	LaserEfficiency    float64 // laser wall-plug efficiency (optical/electrical)
	LineRate           float64 // bit/s per wavelength channel
}

// PaperWaveguideDevices returns the device operating point used by the
// frontier sweep: 0.274 dB/cm propagation, 0.12 dB per crossing,
// 0.005 dB ring through-loss, 0.5 dB drop loss, 1 dB coupler, -20 dBm
// sensitivity, 3 dB margin, 5% wall-plug efficiency, and the FSOI
// paper's 40 Gbps line rate so the energy columns compare directly.
func PaperWaveguideDevices() WaveguideDevices {
	return WaveguideDevices{
		PropagationDBPerCm: 0.274,
		CrossingDB:         0.12,
		BendDB:             0.01,
		RingThroughDB:      0.005,
		RingDropDB:         0.5,
		CouplerDB:          1.0,
		SensitivityDBm:     -20,
		MarginDB:           3,
		LaserEfficiency:    0.05,
		LineRate:           40e9,
	}
}

// LossReport is the topology-level analogue of LinkReport: the
// worst-case insertion-loss budget of one optical interconnect at one
// node count, and the laser power and energy per bit it implies.
type LossReport struct {
	Topology string
	Nodes    int

	// Element counts along the lossiest source→destination route.
	Crossings    int
	ThroughRings int
	DropRings    int
	Bends        int
	PathLengthCm float64 // worst-case guided (or free-space) route

	// Loss budget.
	PropagationDB DB
	CrossingDB    DB
	RingDB        DB // through + drop
	BendDB        DB
	CouplerDB     DB
	SplitterDB    DB // SWMR broadcast split (10·log10 n), 0 elsewhere
	MarginDB      DB
	WorstCaseDB   DB // total: what the laser must overcome

	// Power and energy derived from the budget.
	SensitivityDBm  DBm // receiver floor the budget is closed against
	LaserPowerDBm   DBm // optical launch power per wavelength channel
	LaserPowerMW    float64
	Channels        int     // wavelength channels the topology keeps lit
	TotalLaserW     Watts   // electrical wall-plug power, all channels lit
	EnergyPerBitJ   Joules  // electrical laser energy per bit on one channel
	LineRate        float64 // bit/s per channel the energy is quoted at
	LaserEfficiency float64
}

// finish sums the component losses and derives power and energy.
func (d WaveguideDevices) finish(r LossReport) LossReport {
	r.PropagationDB = DB(r.PathLengthCm * d.PropagationDBPerCm)
	r.CrossingDB = d.CrossingDB.Scale(float64(r.Crossings))
	r.RingDB = d.RingThroughDB.Scale(float64(r.ThroughRings)) + d.RingDropDB.Scale(float64(r.DropRings))
	r.BendDB = d.BendDB.Scale(float64(r.Bends))
	r.CouplerDB = d.CouplerDB
	r.MarginDB = d.MarginDB
	r.WorstCaseDB = r.PropagationDB + r.CrossingDB + r.RingDB + r.BendDB +
		r.CouplerDB + r.SplitterDB + r.MarginDB
	r.SensitivityDBm = d.SensitivityDBm
	r.LineRate = d.LineRate
	r.LaserEfficiency = d.LaserEfficiency
	return closeBudget(r)
}

// closeBudget derives laser power and energy from a summed budget.
func closeBudget(r LossReport) LossReport {
	r.LaserPowerDBm = r.SensitivityDBm.Plus(r.WorstCaseDB)
	r.LaserPowerMW = r.LaserPowerDBm.MilliWatts()
	perChannel := Watts(r.LaserPowerMW * 1e-3 / r.LaserEfficiency)
	r.TotalLaserW = perChannel.Scale(float64(r.Channels))
	r.EnergyPerBitJ = perChannel.Per(r.LineRate)
	return r
}

// serpentineCm returns the length of a waveguide snaking through every
// tile of the die: one die-edge per tile row plus the return legs.
func serpentineCm(g ChipGeometry) float64 {
	return float64(g.MeshDim+1) * g.DieEdge * 100
}

// TokenCrossbarLoss budgets the Corona-style MWSR crossbar: one
// serpentine waveguide per destination channel visits every writer's
// modulator, so the worst-case route runs the full serpentine, passes
// the other n-1 rings off-resonance, and drops once at the reader.
// The token itself is lossless here — its cost is latency, which the
// corona simulation model charges.
func (d WaveguideDevices) TokenCrossbarLoss(nodes int, g ChipGeometry) LossReport {
	return d.finish(LossReport{
		Topology:     "corona",
		Nodes:        nodes,
		ThroughRings: nodes - 1,
		DropRings:    1,
		Bends:        2 * (g.MeshDim - 1),
		PathLengthCm: serpentineCm(g),
		Channels:     nodes,
	})
}

// MatrixCrossbarLoss budgets the matrix/λ-router crossbar: an n×n ring
// matrix where the worst-case route traverses a full input row and a
// full output column — 2(n-1) waveguide crossings and as many rings
// passed off-resonance — before its single drop. Crossing loss grows
// linearly in n, which is what kills the matrix at high radix.
func (d WaveguideDevices) MatrixCrossbarLoss(nodes int, g ChipGeometry) LossReport {
	return d.finish(LossReport{
		Topology:     "matrix",
		Nodes:        nodes,
		Crossings:    2 * (nodes - 1),
		ThroughRings: 2 * (nodes - 1),
		DropRings:    1,
		Bends:        1,
		PathLengthCm: 2 * g.DieEdge * 100,
		Channels:     nodes * nodes,
	})
}

// SnakeCrossbarLoss budgets the snake/SWMR crossbar: each source owns a
// serpentine broadcast channel every reader taps, so beyond the
// serpentine propagation and the n-1 off-resonance taps, the launch
// power is split 1:n across readers — a 10·log10(n) dB broadcast loss
// that grows without bound in the radix.
func (d WaveguideDevices) SnakeCrossbarLoss(nodes int, g ChipGeometry) LossReport {
	return d.finish(LossReport{
		Topology:     "snake",
		Nodes:        nodes,
		ThroughRings: nodes - 1,
		DropRings:    1,
		Bends:        2 * (g.MeshDim - 1),
		PathLengthCm: serpentineCm(g),
		SplitterDB:   DB(10 * math.Log10(float64(nodes))),
		Channels:     nodes,
	})
}

// FSOILoss adapts the free-space Table 1 budget into the same report
// shape: the worst-case route is the folded die diagonal, whose loss is
// the Gaussian-beam path loss plus (at 64 nodes and beyond) the phase
// array's maximum steering roll-off. Free-space loss depends on die
// size, not node count — the relay-free property the frontier sweep is
// built to expose. The budget is closed against the same receiver
// sensitivity, margin, and line rate as the waveguide designs so the
// laser-power and energy columns compare like for like.
func (d WaveguideDevices) FSOILoss(nodes int, link LinkConfig, array PhaseArray, g ChipGeometry) LossReport {
	path := link.Path
	path.Distance = g.WorstCasePath()
	r := LossReport{
		Topology:     "fsoi",
		Nodes:        nodes,
		PathLengthCm: path.Distance * 100,
		Channels:     nodes,
	}
	pl := path.PathLoss()
	r.PropagationDB = pl.SpreadingDB + pl.TxClipDB // diffraction, not absorption
	r.BendDB = pl.MirrorDB                         // the two fold mirrors
	r.CouplerDB = pl.SubstrateDB
	if nodes > 16 {
		// Beam-steered phase arrays replace fixed mirrors at 64+; charge
		// the worst-case scan loss at the edge of the steering range.
		r.SplitterDB = array.SteeringLossDB(array.MaxSteerRad)
	}
	r.MarginDB = d.MarginDB
	r.WorstCaseDB = r.PropagationDB + r.BendDB + r.CouplerDB + r.SplitterDB + r.MarginDB
	r.SensitivityDBm = d.SensitivityDBm
	r.LineRate = d.LineRate
	r.LaserEfficiency = d.LaserEfficiency
	return closeBudget(r)
}

// String renders the budget in the shape of LinkReport.String.
func (r LossReport) String() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("%s @ %d nodes — worst-case insertion loss", r.Topology, r.Nodes)
	w("  route length             %.2f cm (%.2f dB propagation)", r.PathLengthCm, r.PropagationDB)
	w("  crossings                %d (%.2f dB)", r.Crossings, r.CrossingDB)
	w("  rings                    %d through + %d drop (%.2f dB)", r.ThroughRings, r.DropRings, r.RingDB)
	w("  bends                    %d (%.2f dB)", r.Bends, r.BendDB)
	w("  coupler                  %.2f dB", r.CouplerDB)
	if r.SplitterDB > 0 {
		w("  broadcast/steering       %.2f dB", r.SplitterDB)
	}
	w("  margin                   %.2f dB", r.MarginDB)
	w("  worst-case loss          %.2f dB", r.WorstCaseDB)
	w("Laser budget (sensitivity %.0f dBm, %.0f%% wall-plug, %.0f Gbps/λ)",
		r.SensitivityDBm, r.LaserEfficiency*100, r.LineRate/1e9)
	w("  launch power per λ       %.3f mW (%.1f dBm)", r.LaserPowerMW, r.LaserPowerDBm)
	w("  channels lit             %d", r.Channels)
	w("  total laser (electrical) %.3f W", r.TotalLaserW)
	w("  energy per bit           %.3f pJ", r.EnergyPerBitJ*1e12)
	return b.String()
}
