package system

import (
	"fmt"

	"fsoi/internal/core"
	"fsoi/internal/corona"
	"fsoi/internal/mesh"
	"fsoi/internal/noc"
	"fsoi/internal/optics"
	"fsoi/internal/sim"
)

// NetworkKind names the interconnect under test. The name is the kind:
// Interconnects lists every valid one, and ParseNetwork resolves user
// input against it.
type NetworkKind string

// Interconnect configurations of Figures 6/7, and the §7.1 baseline.
const (
	NetFSOI   NetworkKind = "fsoi"
	NetMesh   NetworkKind = "mesh"   // canonical 4-cycle routers, full contention
	NetL0     NetworkKind = "L0"     // idealized: serialization + source queuing only
	NetLr1    NetworkKind = "Lr1"    // 1-cycle routers, contention-free
	NetLr2    NetworkKind = "Lr2"    // 2-cycle routers, contention-free
	NetCorona NetworkKind = "corona" // corona-style token-arbitrated optical crossbar
)

// Interconnect is one network a run can select: the kind that names it,
// how New builds it, and, for the optical members, what its worst case
// costs in laser power.
type Interconnect struct {
	Kind NetworkKind
	// Loss returns the analytic worst-case physical model at a node
	// count (perfect squares only, matching the die floorplan): the
	// insertion loss, and the laser power and energy per bit it costs.
	// It is nil on the electrical networks, which have no optical layer.
	Loss func(nodes int) optics.LossReport
	// build constructs the network for cfg over the engine. The RNG is
	// the run's root; networks that need randomness derive named streams
	// from it, and deterministic ones ignore it.
	build func(cfg Config, engine *sim.Engine, rng *sim.RNG) noc.Network
}

// Interconnects is every network a run can select, sorted by kind: the
// paper's FSOI design, the mesh and the L0/Lr1/Lr2 ideal networks it is
// measured against (Figs 6-7), the Corona-style token crossbar (§7.1),
// and the matrix/λ-router and snake/SWMR WDM crossbars of
// arXiv:1512.07492.
var Interconnects = []Interconnect{
	{Kind: NetL0, build: func(cfg Config, engine *sim.Engine, _ *sim.RNG) noc.Network {
		return mesh.NewL0(dimOf(cfg.Nodes), engine)
	}},
	{Kind: NetLr1, build: func(cfg Config, engine *sim.Engine, _ *sim.RNG) noc.Network {
		return mesh.NewLr(dimOf(cfg.Nodes), 1, engine)
	}},
	{Kind: NetLr2, build: func(cfg Config, engine *sim.Engine, _ *sim.RNG) noc.Network {
		return mesh.NewLr(dimOf(cfg.Nodes), 2, engine)
	}},
	{
		Kind: NetCorona,
		Loss: func(nodes int) optics.LossReport {
			return optics.PaperWaveguideDevices().TokenCrossbarLoss(nodes, paperChip(nodes))
		},
		build: func(cfg Config, engine *sim.Engine, _ *sim.RNG) noc.Network {
			return corona.New(corona.PaperCorona(cfg.Nodes), engine)
		},
	},
	{
		Kind: NetFSOI,
		Loss: func(nodes int) optics.LossReport {
			return optics.PaperWaveguideDevices().FSOILoss(nodes, optics.PaperLink(), optics.PaperPhaseArray(), paperChip(nodes))
		},
		build: func(cfg Config, engine *sim.Engine, rng *sim.RNG) noc.Network {
			return core.New(cfg.fsoiConfig(), engine, rng)
		},
	},
	{
		Kind: "matrix",
		Loss: func(nodes int) optics.LossReport {
			return optics.PaperWaveguideDevices().MatrixCrossbarLoss(nodes, paperChip(nodes))
		},
		build: func(cfg Config, engine *sim.Engine, _ *sim.RNG) noc.Network {
			return corona.New(corona.MatrixCrossbar(cfg.Nodes), engine)
		},
	},
	{Kind: NetMesh, build: func(cfg Config, engine *sim.Engine, _ *sim.RNG) noc.Network {
		mc := mesh.PaperMesh(dimOf(cfg.Nodes))
		mc.BandwidthFrac = cfg.MeshBandwidthFrac
		if cfg.MeshRouterCycles > 0 {
			mc.RouterCycles = cfg.MeshRouterCycles
		}
		return mesh.New(mc, engine)
	}},
	{
		Kind: "snake",
		Loss: func(nodes int) optics.LossReport {
			return optics.PaperWaveguideDevices().SnakeCrossbarLoss(nodes, paperChip(nodes))
		},
		build: func(cfg Config, engine *sim.Engine, _ *sim.RNG) noc.Network {
			return corona.New(corona.SnakeCrossbar(cfg.Nodes), engine)
		},
	},
}

// Networks lists every valid network name, sorted.
func Networks() []string {
	out := make([]string, len(Interconnects))
	for i, n := range Interconnects {
		out[i] = string(n.Kind)
	}
	return out
}

// ParseNetwork resolves a user-supplied name (a -net flag, a JSON spec)
// to its kind; the error names every valid network.
func ParseNetwork(name string) (NetworkKind, error) {
	if n, ok := lookup(NetworkKind(name)); ok {
		return n.Kind, nil
	}
	return "", fmt.Errorf("unknown network %q (have %v)", name, Networks())
}

// lookup finds kind's entry in Interconnects.
func lookup(kind NetworkKind) (Interconnect, bool) {
	for _, n := range Interconnects {
		if n.Kind == kind {
			return n, true
		}
	}
	return Interconnect{}, false
}

// fsoiConfig is the FSOI network's configuration at the run's node count.
func (cfg Config) fsoiConfig() core.Config {
	fc := cfg.FSOI
	fc.Nodes = cfg.Nodes
	return fc
}

// MeshDim returns the die edge in tiles for a node count, or an error
// when the count is not a perfect square (the floorplans, and therefore
// the loss models, assume a square tile grid).
func MeshDim(nodes int) (int, error) {
	for d := 1; d*d <= nodes; d++ {
		if d*d == nodes {
			return d, nil
		}
	}
	return 0, fmt.Errorf("node count %d is not a perfect square", nodes)
}

// dimOf is MeshDim of a node count known to be a perfect square.
func dimOf(nodes int) int {
	dim, err := MeshDim(nodes)
	if err != nil {
		panic(err)
	}
	return dim
}

// paperChip returns the paper floorplan scaled to a node count.
func paperChip(nodes int) optics.ChipGeometry {
	return optics.PaperChip(dimOf(nodes))
}
