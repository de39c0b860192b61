package optics

import "math"

// LayoutConfig sizes the photonic layer of §4.1: per-node VCSEL arrays
// (Figure 1c puts the transmit arrays at the node center and the
// photodetectors on the periphery) and the micro-mirror plane above.
type LayoutConfig struct {
	Nodes        int
	MetaVCSELs   int // transmit VCSELs per meta lane
	DataVCSELs   int // per data lane
	PhaseArray   bool
	PhaseElems   int     // emitters per steerable array
	VCSELSpacing float64 // center-to-center pitch, m (paper assumes 30 um)
	Receivers    int     // receivers per lane per node
	PDEdge       float64 // photodetector + lens footprint edge, m
	Chip         ChipGeometry
}

// PaperLayout returns the 16-node evaluation layout.
func PaperLayout(nodes int) LayoutConfig {
	return LayoutConfig{
		Nodes:        nodes,
		MetaVCSELs:   3,
		DataVCSELs:   6,
		PhaseArray:   nodes > 16,
		PhaseElems:   16,
		VCSELSpacing: 30e-6,
		Receivers:    2,
		PDEdge:       190e-6, // dominated by the receive micro-lens
		Chip:         PaperChip(int(math.Sqrt(float64(nodes)))),
	}
}

// LayoutReport is the area accounting of §4.1.
type LayoutReport struct {
	TxVCSELsPerNode  int
	TxVCSELsTotal    int     // including the confirmation lane
	VCSELAreaTotal   float64 // m²
	PDsPerNode       int
	PDAreaTotal      float64 // m²
	MirrorCount      int     // fixed micro-mirrors (at most n² per §3.2)
	PhotonicAreaFrac float64 // photonic footprint / die area
}

// Layout computes the report.
func (c LayoutConfig) Layout() LayoutReport {
	var r LayoutReport
	lanes := c.MetaVCSELs + c.DataVCSELs
	if c.PhaseArray {
		// One steerable array per lane plus the confirmation VCSEL.
		r.TxVCSELsPerNode = lanes*c.PhaseElems + 1
		r.TxVCSELsTotal = c.Nodes * r.TxVCSELsPerNode
	} else {
		// Dedicated per-destination arrays: (N-1) destinations x k bits,
		// plus one confirmation VCSEL per node.
		r.TxVCSELsPerNode = (c.Nodes-1)*lanes + 1
		r.TxVCSELsTotal = c.Nodes * r.TxVCSELsPerNode
	}
	cell := c.VCSELSpacing * c.VCSELSpacing
	r.VCSELAreaTotal = float64(r.TxVCSELsTotal) * cell

	// Receivers: 2 per lane class (meta, data) plus 1 confirmation.
	r.PDsPerNode = 2*c.Receivers + 1
	r.PDAreaTotal = float64(c.Nodes*r.PDsPerNode) * c.PDEdge * c.PDEdge

	// Fixed mirrors: one per directed node pair in the mirror-guided
	// configuration, n(n-1) <= n².
	r.MirrorCount = c.Nodes * (c.Nodes - 1)

	die := c.Chip.DieEdge * c.Chip.DieEdge
	r.PhotonicAreaFrac = (r.VCSELAreaTotal + r.PDAreaTotal) / die
	return r
}
