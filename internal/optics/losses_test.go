package optics

import (
	"math"
	"testing"
)

// dim returns the mesh edge for a square node count.
func dim(nodes int) int {
	d := int(math.Round(math.Sqrt(float64(nodes))))
	return d
}

func reports(nodes int) []LossReport {
	d := PaperWaveguideDevices()
	g := PaperChip(dim(nodes))
	return []LossReport{
		d.TokenCrossbarLoss(nodes, g),
		d.MatrixCrossbarLoss(nodes, g),
		d.SnakeCrossbarLoss(nodes, g),
		d.FSOILoss(nodes, PaperLink(), PaperPhaseArray(), g),
	}
}

func TestLossBudgetsClose(t *testing.T) {
	for _, nodes := range []int{16, 64, 256} {
		for _, r := range reports(nodes) {
			if r.WorstCaseDB <= 0 {
				t.Fatalf("%s@%d: non-positive worst-case loss %.2f", r.Topology, nodes, r.WorstCaseDB)
			}
			if r.LaserPowerMW <= 0 || r.TotalLaserW <= 0 || r.EnergyPerBitJ <= 0 {
				t.Fatalf("%s@%d: budget did not close: %+v", r.Topology, nodes, r)
			}
			// The launch power must be exactly sensitivity + loss.
			wantDBm := r.SensitivityDBm.Plus(r.WorstCaseDB)
			if math.Abs(float64(r.LaserPowerDBm-wantDBm)) > 1e-9 {
				t.Fatalf("%s@%d: launch %.3f dBm, want %.3f", r.Topology, nodes, r.LaserPowerDBm, wantDBm)
			}
		}
	}
}

func TestWaveguideLossGrowsWithRadix(t *testing.T) {
	for i, topo := range []string{"corona", "matrix", "snake"} {
		l16 := reports(16)[i]
		l64 := reports(64)[i]
		l256 := reports(256)[i]
		if topo != l16.Topology {
			t.Fatalf("report order changed: got %s want %s", l16.Topology, topo)
		}
		if !(l16.WorstCaseDB < l64.WorstCaseDB && l64.WorstCaseDB < l256.WorstCaseDB) {
			t.Fatalf("%s: loss must grow with node count: %.2f, %.2f, %.2f",
				topo, l16.WorstCaseDB, l64.WorstCaseDB, l256.WorstCaseDB)
		}
	}
}

func TestFSOILossFlatInRadix(t *testing.T) {
	f64 := reports(64)[3]
	f256 := reports(256)[3]
	if f64.Topology != "fsoi" {
		t.Fatalf("report order changed: got %s", f64.Topology)
	}
	// Free-space loss depends on die size and steering only; with the
	// same die it must not grow by more than a fraction of a dB from 64
	// to 256 nodes (the geometry's worst-case diagonal is unchanged).
	if d := math.Abs(float64(f256.WorstCaseDB - f64.WorstCaseDB)); d > 0.5 {
		t.Fatalf("fsoi loss moved %.2f dB from 64 to 256 nodes; must stay flat", d)
	}
}

func TestFSOIWinsWorstCaseLossAtScale(t *testing.T) {
	// The frontier headline: at 256 nodes every waveguide crossbar pays
	// more worst-case loss than relay-free free-space optics.
	rs := reports(256)
	fsoi := rs[3]
	for _, r := range rs[:3] {
		if r.WorstCaseDB <= fsoi.WorstCaseDB {
			t.Fatalf("%s@256 loss %.2f dB <= fsoi %.2f dB", r.Topology, r.WorstCaseDB, fsoi.WorstCaseDB)
		}
	}
}

func TestMatrixCrossingDominatesAtScale(t *testing.T) {
	m := PaperWaveguideDevices().MatrixCrossbarLoss(256, PaperChip(16))
	if m.CrossingDB < m.PropagationDB+m.RingDB+m.BendDB {
		t.Fatalf("matrix@256: crossings %.2f dB should dominate the guided terms", m.CrossingDB)
	}
}

func TestSnakeSplitterIsLogarithmic(t *testing.T) {
	d := PaperWaveguideDevices()
	s64 := d.SnakeCrossbarLoss(64, PaperChip(8))
	s256 := d.SnakeCrossbarLoss(256, PaperChip(16))
	if math.Abs(float64(s64.SplitterDB)-10*math.Log10(64)) > 1e-9 {
		t.Fatalf("snake@64 splitter %.2f dB, want 10·log10(64)", s64.SplitterDB)
	}
	if growth := float64(s256.SplitterDB - s64.SplitterDB); math.Abs(growth-10*math.Log10(4)) > 1e-9 {
		t.Fatalf("snake splitter growth %.2f dB for 4x radix, want %.2f", growth, 10*math.Log10(4))
	}
}
