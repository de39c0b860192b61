package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"fsoi/internal/optics"
)

func TestUniformFieldMatchesClosedForm(t *testing.T) {
	// With uniform power there is no lateral flow: T = Tamb + P*Rv.
	cfg := ForCooling(Microchannel, 4)
	res := cfg.Solve(UniformPower(4, 8))
	want := cfg.Ambient + 8*cfg.RVertical
	for i, v := range res.Temps {
		if math.Abs(v-want) > 1e-6 {
			t.Fatalf("node %d: %g K, want %g", i, v, want)
		}
	}
	if math.Abs(res.MaxK-res.MeanK) > 1e-6 {
		t.Fatal("uniform field must be flat")
	}
}

func TestLiquidCoolingBeatsAir(t *testing.T) {
	p := UniformPower(4, 9)
	air := ForCooling(AirCooled, 4).Solve(p)
	liquid := ForCooling(Microchannel, 4).Solve(p)
	if liquid.MaxK >= air.MaxK {
		t.Fatalf("microchannel (%.1f K) must run cooler than air (%.1f K)", liquid.MaxK, air.MaxK)
	}
}

func TestSpreaderFlattensHotspot(t *testing.T) {
	p := UniformPower(4, 6)
	p[5] = 25
	air := ForCooling(AirCooled, 4).Solve(p)
	diamond := ForCooling(DiamondSpreader, 4).Solve(p)
	if diamond.MaxK >= air.MaxK {
		t.Fatalf("a diamond spreader must cut the hotspot: %.1f vs %.1f K", diamond.MaxK, air.MaxK)
	}
	// The spreader flattens the field: smaller hot-to-cold span.
	spanOf := func(r Result) float64 {
		lo := r.Temps[0]
		for _, v := range r.Temps {
			lo = math.Min(lo, v)
		}
		return r.MaxK - lo
	}
	if spanOf(diamond) >= spanOf(air) {
		t.Fatalf("spreading must flatten the field: span %.2f vs %.2f K", spanOf(diamond), spanOf(air))
	}
}

func TestHotspotIsHottest(t *testing.T) {
	p := UniformPower(4, 5)
	p[10] = 20
	res := ForCooling(AirCooled, 4).Solve(p)
	for i, v := range res.Temps {
		if i != 10 && v >= res.Temps[10] {
			t.Fatalf("node %d (%.2f K) should not beat the hotspot (%.2f K)", i, v, res.Temps[10])
		}
	}
	if res.MaxK != res.Temps[10] {
		t.Fatal("MaxK must track the hotspot")
	}
}

func TestMonotoneInPower(t *testing.T) {
	cfg := ForCooling(Microchannel, 4)
	err := quick.Check(func(raw uint8) bool {
		p := optics.Watts(raw%20) + 1
		lo := cfg.Solve(UniformPower(4, p))
		hi := cfg.Solve(UniformPower(4, p+1))
		return hi.MaxK > lo.MaxK && lo.MaxK > cfg.Ambient
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLinearSuperposition(t *testing.T) {
	// The network is linear: solving the sum of two power maps equals
	// the sum of the individual rises.
	cfg := ForCooling(AirCooled, 4)
	a, b := UniformPower(4, 2), UniformPower(4, 1)
	a[3], b[12] = 10, 8
	both := make([]optics.Watts, len(a))
	for i := range both {
		both[i] = a[i] + b[i]
	}
	ra, rb, rboth := cfg.Solve(a), cfg.Solve(b), cfg.Solve(both)
	for i := range both {
		riseSum := (ra.Temps[i] - cfg.Ambient) + (rb.Temps[i] - cfg.Ambient)
		rise := rboth.Temps[i] - cfg.Ambient
		if math.Abs(rise-riseSum) > 1e-4 {
			t.Fatalf("node %d: superposition violated (%.4f vs %.4f)", i, rise, riseSum)
		}
	}
}

func TestLeakageFactor(t *testing.T) {
	r := Result{MeanK: 360}
	f := r.LeakageFactor(330, 0.012)
	if math.Abs(f-1.36) > 1e-9 {
		t.Fatalf("leakage factor = %g, want 1.36", f)
	}
}

func TestPowerMapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size power map must panic")
		}
	}()
	ForCooling(AirCooled, 4).Solve(make([]optics.Watts, 3))
}

func TestCoolingStrings(t *testing.T) {
	if AirCooled.String() != "air" || Microchannel.String() != "microchannel" ||
		DiamondSpreader.String() != "diamond-spreader" {
		t.Fatal("names wrong")
	}
}

func TestSixtyFourNodeTilesRunHotter(t *testing.T) {
	// At equal per-node power, the smaller 64-node tiles concentrate
	// heat: per-tile vertical resistance grows with node count (§3.3).
	p16 := ForCooling(Microchannel, 4).Solve(UniformPower(4, 4))
	p64 := ForCooling(Microchannel, 8).Solve(UniformPower(8, 4))
	if p64.MaxK <= p16.MaxK {
		t.Fatalf("64-node tiles should run hotter at equal per-node power: %.1f vs %.1f K", p64.MaxK, p16.MaxK)
	}
}
