package exp

import (
	"fmt"
	"strings"

	"fsoi/internal/optics"
	"fsoi/internal/stats"
	"fsoi/internal/system"
	"fsoi/internal/thermal"
)

// Layout reproduces the §4.1 hardware-scale arithmetic: VCSEL counts and
// photonic-layer area for the dedicated (16-node) and phase-arrayed
// (64-node) configurations.
func Layout(o Options) Result {
	var b strings.Builder
	vals := map[string]float64{}
	for _, nodes := range []int{16, 64} {
		cfg := optics.PaperLayout(nodes)
		r := cfg.Layout()
		fmt.Fprintf(&b, "%d nodes (%s):\n", nodes, map[bool]string{false: "dedicated arrays", true: "phase arrays"}[cfg.PhaseArray])
		fmt.Fprintf(&b, "TX VCSELs        %d per node, %d total\n", r.TxVCSELsPerNode, r.TxVCSELsTotal)
		fmt.Fprintf(&b, "VCSEL area       %.2f mm^2 (paper estimates %s mm^2 at 16 nodes)\n", r.VCSELAreaTotal*1e6, paper("layout.area"))
		fmt.Fprintf(&b, "Photodetectors   %d per node, %.2f mm^2 total\n", r.PDsPerNode, r.PDAreaTotal*1e6)
		fmt.Fprintf(&b, "Fixed mirrors    %d\n", r.MirrorCount)
		fmt.Fprintf(&b, "Photonic share   %.1f%% of die area\n\n", r.PhotonicAreaFrac*100)
		vals[fmt.Sprintf("vcsels_%d", nodes)] = float64(r.TxVCSELsTotal)
		vals[fmt.Sprintf("area_mm2_%d", nodes)] = r.VCSELAreaTotal * 1e6
	}
	fmt.Fprintf(&b, "paper §4.1: N=16, k=9 needs %s VCSELs occupying %s mm² at 30 um spacing\n", paper("layout.vcsels"), paper("layout.area"))
	return Result{Title: "§4.1: photonic-layer scale", Text: b.String(), Values: vals}
}

// Thermal evaluates the §3.3 cooling alternatives under the power map of
// a real FSOI run: air cooling (obstructed by the free-space layer),
// microchannel liquid cooling, and a diamond heat spreader.
func Thermal(o Options) Result {
	apps := o.suite()[:1]
	ms, wedged := runSuite(o, apps, o.config(system.NetFSOI, 16))
	m := ms[0][0]
	perNode := m.AvgPowerW / 16
	// A mildly non-uniform map: directory-home traffic concentrates at
	// the memory-controller corners.
	power := thermal.UniformPower(4, perNode)
	for _, corner := range []int{0, 3, 12, 15} {
		power[corner] *= 1.25
	}
	t := stats.NewTable("cooling", "max junction (C)", "mean (C)", "leakage factor")
	vals := map[string]float64{}
	for _, c := range []thermal.Cooling{thermal.AirCooled, thermal.Microchannel, thermal.DiamondSpreader} {
		res := thermal.ForCooling(c, 4).Solve(power)
		lf := res.LeakageFactor(330, 0.012)
		t.AddRow(c.String(), fmt.Sprintf("%.1f", res.MaxC()),
			fmt.Sprintf("%.1f", res.MeanK-273.15), fmt.Sprintf("%.3f", lf))
		vals["max_"+c.String()] = res.MaxC()
		vals["leak_"+c.String()] = lf
	}
	var b strings.Builder
	fmt.Fprintf(&b, "power map from %s on 16-node FSOI: %.1f W total\n\n", apps[0].Name, m.AvgPowerW)
	b.WriteString(t.String())
	b.WriteString("\nliquid cooling keeps the stack viable under the free-space layer (§3.3)\n")
	return Result{Title: "§3.3: cooling alternatives for the 3-D stack", Text: b.String(), Values: vals, Unfinished: wedged}
}
