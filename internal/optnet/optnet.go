// Package optnet is the registry of optical interconnect topologies —
// the "topology zoo" behind the frontier sweep. Every member implements
// noc.Network for cycle-level simulation and pairs it with an analytic
// worst-case physical model (internal/optics LossReport), so a single
// name selects both how the fabric behaves under traffic and what its
// worst-case insertion loss costs in laser power and energy per bit.
//
// The built-in family (see topologies.go): the Corona-style token
// crossbar, the matrix/λ-router and snake/SWMR WDM crossbars of
// arXiv:1512.07492, and the paper's beam-steered FSOI as the reference
// member. A registered name is a system.NetworkKind: internal/system
// builds any member it has no Config knobs for straight from Build, and
// the exp "frontier" grid sweeps the whole registry across node counts.
package optnet

import (
	"fmt"
	"sort"

	"fsoi/internal/noc"
	"fsoi/internal/optics"
	"fsoi/internal/sim"
)

// Topology is one member of the optical-baseline family.
type Topology struct {
	// Name selects the topology (system.NetworkKind, -net flags).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Ordered reports whether the network delivers packets in order per
	// (src, dst) pair with no further help; the conformance test checks
	// it. FSOI declares false: collision backoff can reorder a source's
	// packets, and the system layer restores ordering per cache line.
	Ordered bool
	// Build constructs a fresh network over the engine. The RNG is the
	// run's root; topologies that need randomness must derive named
	// streams from it, and deterministic ones ignore it.
	Build func(nodes int, engine sim.Scheduler, rng *sim.RNG) noc.Network
	// Loss returns the analytic worst-case physical model at a node
	// count (perfect squares only, matching the die floorplan).
	Loss func(nodes int) optics.LossReport
}

// registry maps names to topologies. It is only ever indexed or
// iterated through the sorted Names slice, so map order cannot leak.
var registry = map[string]Topology{}

// Register adds a topology to the family. It panics on a duplicate or
// incomplete registration: the zoo is assembled at init time and a bad
// member is a programming error, not a runtime condition.
func Register(t Topology) {
	if t.Name == "" || t.Build == nil || t.Loss == nil {
		panic("optnet: topology needs a name, a builder, and a loss model")
	}
	if _, dup := registry[t.Name]; dup {
		panic(fmt.Sprintf("optnet: duplicate topology %q", t.Name))
	}
	registry[t.Name] = t
}

// Get looks up a topology by name.
func Get(name string) (Topology, bool) {
	t, ok := registry[name]
	return t, ok
}

// Names lists the registered topologies in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Build constructs a registered topology by name.
func Build(name string, nodes int, engine sim.Scheduler, rng *sim.RNG) (noc.Network, error) {
	t, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("optnet: unknown topology %q (have %v)", name, Names())
	}
	return t.Build(nodes, engine, rng), nil
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
	return 0, fmt.Errorf("optnet: node count %d is not a perfect square", nodes)
}
