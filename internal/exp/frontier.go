package exp

import (
	"fmt"
	"strings"

	"fsoi/internal/stats"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// Frontier sweeps the optical members of system.Interconnects (those
// with a loss model) across node counts and renders the
// loss/energy/latency frontier:
//
//   - an analytic half at 16/64/256/1024 nodes, where each topology's
//     worst-case insertion-loss model sets the laser launch power and
//     energy per bit (arXiv:1512.07492 methodology) — this is where the
//     waveguide crossbars' loss grows with radix while the relay-free
//     free-space design stays flat;
//   - a simulated half at 16 (and, at full scale, 64) nodes, running
//     the workload suite over every optical topology through the
//     system layer to pin latency and run time to the same names;
//   - a scale half at 256 (and, at full scale, 1024) nodes,
//     simulating the two §7.1 contenders past the radix of the paper's
//     own evaluation.
//
// The 64-node FSOI-vs-token-crossbar run-time ratio reproduces the
// paper's §7.1 Corona comparison (~1.06x) from inside the sweep.
func Frontier(o Options) Result {
	var optical []system.Interconnect
	for _, n := range system.Interconnects {
		if n.Loss != nil {
			optical = append(optical, n)
		}
	}
	vals := map[string]float64{}
	var b strings.Builder

	// Analytic half: the physical frontier.
	at := stats.NewTable("topology", "nodes", "worst loss dB", "launch/λ mW", "laser W", "energy/bit pJ")
	for _, topo := range optical {
		name := string(topo.Kind)
		for _, nodes := range []int{16, 64, 256, 1024} {
			r := topo.Loss(nodes)
			at.AddRow(name, fmt.Sprint(nodes),
				fmt.Sprintf("%.2f", r.WorstCaseDB),
				fmt.Sprintf("%.3f", r.LaserPowerMW),
				fmt.Sprintf("%.3f", r.TotalLaserW),
				fmt.Sprintf("%.3f", r.EnergyPerBitJ*1e12))
			vals[fmt.Sprintf("loss_%s_%d", name, nodes)] = float64(r.WorstCaseDB)
			vals[fmt.Sprintf("epb_%s_%d", name, nodes)] = float64(r.EnergyPerBitJ) * 1e12
		}
	}
	b.WriteString("Worst-case insertion loss and laser energy (analytic)\n")
	b.WriteString(at.String())

	// Simulated half: latency and run time on the same names, beside the
	// analytic half's energy per bit. Benches skip the 64-node grid for
	// time, like Table4.
	simNodes := []int{16}
	if o.Scale >= 0.2 {
		simNodes = append(simNodes, 64)
	}
	var cfgs []system.Config
	for _, nodes := range simNodes {
		for _, topo := range optical {
			cfgs = append(cfgs, o.config(topo.Kind, nodes))
		}
	}
	ms, wedged := runSuite(o, o.suite(), cfgs...)
	st := stats.NewTable("topology", "nodes", "geomean cycles", "mean pkt latency", "energy/bit pJ")
	cyc := map[string]float64{}
	for c, cfg := range cfgs {
		name, nodes := string(cfg.Net), cfg.Nodes
		var cs, lat []float64
		for _, m := range ms[c] {
			cs = append(cs, float64(m.Cycles))
			lat = append(lat, m.Latency.MeanTotal())
		}
		g := stats.GeoMean(cs)
		cyc[fmt.Sprintf("%s_%d", name, nodes)] = g
		st.AddRow(name, fmt.Sprint(nodes),
			fmt.Sprintf("%.0f", g),
			fmt.Sprintf("%.2f", mean(lat)),
			fmt.Sprintf("%.3f", vals[fmt.Sprintf("epb_%s_%d", name, nodes)]))
		vals[fmt.Sprintf("cycles_%s_%d", name, nodes)] = g
	}
	b.WriteString("\nSimulated latency and run time\n")
	b.WriteString(st.String())

	// Scale half. The workload is scaled down with the node count so the
	// sweep prices wall-clock, not patience; 1024 nodes ride along only
	// at full scale.
	if o.Scale >= 0.05 {
		bigNodes := []int{256}
		if o.Scale >= 0.2 {
			bigNodes = append(bigNodes, 1024)
		}
		bigApp, _ := workload.ByName("jacobi", o.Scale*0.04)
		var bigCfgs []system.Config
		for _, nodes := range bigNodes {
			for _, kind := range []system.NetworkKind{system.NetFSOI, system.NetCorona} {
				bigCfgs = append(bigCfgs, o.config(kind, nodes))
			}
		}
		bms, bigWedged := runSuite(o, []workload.App{bigApp}, bigCfgs...)
		wedged = append(wedged, bigWedged...)
		bt := stats.NewTable("topology", "nodes", "cycles", "mean pkt latency", "delivered")
		for c, cfg := range bigCfgs {
			m := bms[c][0]
			bt.AddRow(string(cfg.Net), fmt.Sprint(cfg.Nodes),
				fmt.Sprint(m.Cycles),
				fmt.Sprintf("%.2f", m.Latency.MeanTotal()),
				fmt.Sprint(m.Latency.Delivered))
			vals[fmt.Sprintf("cycles_%s_%d", cfg.Net, cfg.Nodes)] = float64(m.Cycles)
		}
		fmt.Fprintf(&b, "\nScale frontier (jacobi @ %.3f)\n", o.Scale*0.04)
		b.WriteString(bt.String())
	}

	// The §7.1 headline, from the largest simulated grid.
	refNodes := simNodes[len(simNodes)-1]
	ratio := cyc[fmt.Sprintf("corona_%d", refNodes)] / cyc[fmt.Sprintf("fsoi_%d", refNodes)]
	vals[fmt.Sprintf("fsoi_vs_corona_%d", refNodes)] = ratio
	fmt.Fprintf(&b, "\nFSOI runs %.3fx the token crossbar at %d nodes (paper §7.1: ~1.06x at 64),\n"+
		"and its worst-case loss stays flat in radix while every waveguide crossbar's grows\n",
		ratio, refNodes)

	return Result{
		ID:         "frontier",
		Title:      "Frontier: optical-topology loss/energy/latency sweep",
		Text:       b.String(),
		Values:     vals,
		Unfinished: wedged,
	}
}
