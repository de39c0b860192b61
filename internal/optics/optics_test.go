package optics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGaussianRayleighRange(t *testing.T) {
	b := GaussianBeam{Waist: 45e-6, Wavelength: 980e-9, Index: 1}
	zr := b.RayleighRange()
	want := math.Pi * 45e-6 * 45e-6 / 980e-9
	if math.Abs(zr-want)/want > 1e-12 {
		t.Fatalf("zR = %g, want %g", zr, want)
	}
}

func TestGaussianRadiusGrowth(t *testing.T) {
	b := GaussianBeam{Waist: 45e-6, Wavelength: 980e-9, Index: 1}
	if r := b.RadiusAt(0); r != b.Waist {
		t.Fatalf("radius at waist = %g", r)
	}
	zr := b.RayleighRange()
	if r := b.RadiusAt(zr); math.Abs(r-b.Waist*math.Sqrt2) > 1e-9 {
		t.Fatalf("radius at zR = %g, want w0*sqrt2", r)
	}
	// Far field: w(z) ~ theta * z, theta = lambda/(pi w0).
	far := b.RadiusAt(100 * zr)
	if theta := b.Wavelength / (math.Pi * b.Waist); math.Abs(far-theta*100*zr)/far > 0.01 {
		t.Fatalf("far-field radius inconsistent with divergence")
	}
}

func TestGaussianRadiusMonotonic(t *testing.T) {
	b := GaussianBeam{Waist: 10e-6, Wavelength: 980e-9, Index: 1}
	err := quick.Check(func(a, c uint16) bool {
		z1, z2 := float64(a)*1e-5, float64(c)*1e-5
		if z1 > z2 {
			z1, z2 = z2, z1
		}
		return b.RadiusAt(z1) <= b.RadiusAt(z2)+1e-15
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestApertureTransmission(t *testing.T) {
	// Aperture at the 1/e² radius passes 1-exp(-2) ≈ 86.5%.
	got := ApertureTransmission(30e-6, 30e-6)
	if math.Abs(got-(1-math.Exp(-2))) > 1e-12 {
		t.Fatalf("T(a=w) = %g", got)
	}
	if ApertureTransmission(0, 1) != 0 {
		t.Fatal("zero aperture should pass nothing")
	}
	if big := ApertureTransmission(1, 1e-9); big < 0.9999 {
		t.Fatal("huge aperture should pass everything")
	}
}

func TestDBRoundTrip(t *testing.T) {
	err := quick.Check(func(raw uint8) bool {
		db := DB(raw) / 10
		ratio := db.Ratio()
		return math.Abs(float64(DBFromRatio(ratio)-db)) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(DBFromRatio(0)), 1) {
		t.Fatal("DBFromRatio(0) should be +Inf")
	}
}

func TestBERQRelation(t *testing.T) {
	// Q ~ 6 corresponds to BER ~ 1e-9; Q ~ 7 to ~1e-12.
	if ber := BERFromQ(6); ber > 2e-9 || ber < 1e-10 {
		t.Fatalf("BER(Q=6) = %g", ber)
	}
	if ber := BERFromQ(7); ber > 2e-12 || ber < 1e-13 {
		t.Fatalf("BER(Q=7) = %g", ber)
	}
}

func TestVCSELPowerLevels(t *testing.T) {
	v := PaperVCSEL()
	p1, p0 := v.LevelPowers()
	if math.Abs(float64(p1/p0)-v.ExtinctionRatio) > 1e-9 {
		t.Fatalf("extinction ratio = %g, want %g", p1/p0, v.ExtinctionRatio)
	}
	bias := (v.BiasCurrent - v.ThresholdCurrent) * v.SlopeEfficiency
	if avg := (p1 + p0) / 2; math.Abs(float64(avg)-bias) > 1e-15 {
		t.Fatalf("levels do not average to the bias power")
	}
	// Paper: 0.48 mA at 2 V = 0.96 mW.
	if ep := v.ElectricalPower(); math.Abs(float64(ep)-0.96e-3) > 1e-9 {
		t.Fatalf("electrical power = %g, want 0.96 mW", ep)
	}
}

func TestVCSELBelowThreshold(t *testing.T) {
	v := PaperVCSEL()
	v.BiasCurrent = v.ThresholdCurrent / 2
	if p1, p0 := v.LevelPowers(); p1 != 0 || p0 != 0 {
		t.Fatal("below threshold the laser emits nothing")
	}
}

func TestPathLossNearPaper(t *testing.T) {
	// Table 1: 2.6 dB over the 2 cm diagonal.
	b := PaperPath().PathLoss()
	if b.TotalDB < 2.2 || b.TotalDB > 3.2 {
		t.Fatalf("path loss %.2f dB, paper reports 2.6 dB", b.TotalDB)
	}
	if b.SpreadingDB < b.TxClipDB {
		t.Fatal("diffraction spreading should dominate transmit clipping")
	}
}

func TestPathLossGrowsWithDistance(t *testing.T) {
	p := PaperPath()
	short := p
	short.Distance = 5e-3
	if short.PathLoss().TotalDB >= p.PathLoss().TotalDB {
		t.Fatal("shorter routes should lose less")
	}
}

func TestChipGeometryWorstCase(t *testing.T) {
	g := PaperChip(4)
	worst := g.WorstCasePath()
	if worst < 15e-3 || worst > 25e-3 {
		t.Fatalf("worst-case path %.1f mm; the paper evaluates a 2 cm diagonal", worst*1e3)
	}
	if g.PathLength(0, 0) != 2*g.LayerHeight {
		t.Fatal("self path should be just the vertical excursion")
	}
	if g.PathLength(0, 15) != g.PathLength(15, 0) {
		t.Fatal("paths must be symmetric")
	}
}

func TestFlightWithinCycles(t *testing.T) {
	// 2 cm at light speed is ~67 ps, well under one 3.3 GHz cycle... but
	// in communication cycles (40 GHz) it is ~2.7 line bits: the paper's
	// footnote about padding bits.
	cyc := FlightCycles(2e-2, 3.3e9)
	if cyc > 0.3 {
		t.Fatalf("flight = %.3f core cycles; should be a fraction", cyc)
	}
	pad := SkewPaddingBits(5e-3, 2e-2, 40e9)
	if pad < 1 || pad > 5 {
		t.Fatalf("padding bits = %d; the paper cites tens of ps ≈ a few bits", pad)
	}
}

func TestLinkBudgetTable1(t *testing.T) {
	r := PaperLink().Budget()
	if !r.RateSupported {
		t.Fatalf("40 Gbps must be supported (max %.1f Gbps)", r.MaxDataRate/1e9)
	}
	if r.BER > 1e-8 || r.BER < 1e-14 {
		t.Fatalf("BER = %g, paper reports 1e-10", r.BER)
	}
	if r.OpticalSNRdB < 6.5 || r.OpticalSNRdB > 9.5 {
		t.Fatalf("SNR = %.1f dB, paper reports 7.5 dB", r.OpticalSNRdB)
	}
	if r.BitsPerCycle != 12 {
		t.Fatalf("bits per cycle = %d, want 12", r.BitsPerCycle)
	}
	if r.JitterRMS > 5e-12 {
		t.Fatalf("jitter = %.2f ps, paper reports 1.7 ps", r.JitterRMS*1e12)
	}
	if math.Abs(float64(r.TxActivePowerW)-7.26e-3) > 1e-6 {
		t.Fatalf("TX power = %g, want 6.3+0.96 mW", r.TxActivePowerW)
	}
	if r.EnergyPerBitTxJ > 0.5e-12 {
		t.Fatalf("TX energy %.3f pJ/bit too high", r.EnergyPerBitTxJ*1e12)
	}
}

func TestLinkBudgetDegradesWithLoss(t *testing.T) {
	c := PaperLink()
	c.Path.MirrorReflect = 0.5 // terrible mirrors
	bad := c.Budget()
	good := PaperLink().Budget()
	if bad.QFactor >= good.QFactor {
		t.Fatal("more loss must reduce Q")
	}
	if bad.BER <= good.BER {
		t.Fatal("more loss must raise BER")
	}
}

func TestLinkReportString(t *testing.T) {
	s := PaperLink().Budget().String()
	for _, want := range []string{"path loss", "Bit-error-rate", "Receiver", "standby"} {
		if !containsFold(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func containsFold(s, sub string) bool {
	return len(s) >= len(sub) && (stringsIndexFold(s, sub) >= 0)
}

func stringsIndexFold(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j], sub[j]
			if 'A' <= a && a <= 'Z' {
				a += 32
			}
			if 'A' <= b && b <= 'Z' {
				b += 32
			}
			if a != b {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

func TestPhaseArraySteering(t *testing.T) {
	a := PaperPhaseArray()
	if a.SteeringLossDB(0) != 0 {
		t.Fatal("boresight should be lossless")
	}
	if a.SteeringLossDB(0.3) <= 0 {
		t.Fatal("off-axis steering must cost power")
	}
	if !math.IsInf(float64(a.SteeringLossDB(a.MaxSteerRad+0.1)), 1) {
		t.Fatal("beyond max steer the link is dead")
	}
}

func TestLayoutSixteenNodeScale(t *testing.T) {
	r := PaperLayout(16).Layout()
	// §4.1: roughly 2000 transmit VCSELs at 16 nodes.
	if r.TxVCSELsTotal < 2000 || r.TxVCSELsTotal > 2400 {
		t.Fatalf("VCSEL count %d, paper estimates ~2000", r.TxVCSELsTotal)
	}
	// ~5 mm² at 30 um spacing (the paper's conservative figure).
	if mm2 := r.VCSELAreaTotal * 1e6; mm2 < 1 || mm2 > 6 {
		t.Fatalf("VCSEL area %.2f mm², paper estimates ~5 mm²", mm2)
	}
	if r.PhotonicAreaFrac <= 0 || r.PhotonicAreaFrac > 0.2 {
		t.Fatalf("photonic area share %.3f implausible", r.PhotonicAreaFrac)
	}
	if r.MirrorCount != 16*15 {
		t.Fatalf("mirrors = %d, want n(n-1)", r.MirrorCount)
	}
}

func TestLayoutPhaseArrayScaling(t *testing.T) {
	phased := PaperLayout(64).Layout()
	dedicated64 := PaperLayout(64)
	dedicated64.PhaseArray = false
	// The phase array makes the per-node VCSEL count constant in N —
	// far below the (N-1)*k a dedicated 64-node design would need.
	if phased.TxVCSELsPerNode*3 >= dedicated64.Layout().TxVCSELsPerNode {
		t.Fatalf("phase array per-node count %d should be far below dedicated %d",
			phased.TxVCSELsPerNode, dedicated64.Layout().TxVCSELsPerNode)
	}
}
