// Package adversary models hostile traffic on the FSOI shared medium,
// after arXiv:2303.01550's gain-competition attacks on optical NoCs. An
// adversary is a compromised node running a hostile operation stream
// (built by internal/workload) plus, for the roles that tamper with the
// optical layer itself, a Model the network consults on the paths an
// attacker can reach: PID/~PID header spoofing on arrival resolution and
// confirmation-beam starvation on clean delivery.
//
// Everything is deterministic under the repository's named-RNG-stream
// discipline: the model draws only from the per-node streams the network
// hands it, in simulation order, and a configuration with no adversaries
// draws nothing — attack-free runs are byte-identical to a build without
// adversary support.
package adversary

import (
	"fmt"

	"fsoi/internal/sim"
)

// Role selects the attack an adversary node mounts.
type Role int

const (
	// RoleJammer floods lines homed at its victims with always-missing
	// loads and stores, saturating the victims' receiver slots so honest
	// traffic collides and backs off (a collision storm). Pure traffic:
	// the optical layer is not tampered with.
	RoleJammer Role = iota
	// RoleSpoofer transmits corrupted PID/~PID headers: every arrival
	// from the spoofer is misdetected as a collision with probability
	// Intensity, burning victim receiver slots and dragging the
	// spoofer's own links into deep backoff (§4.3.1 misdetection paths).
	RoleSpoofer
	// RoleStarver suppresses the confirmation beam for packets cleanly
	// received at its victims: with probability Intensity the sender
	// never hears the confirmation and rides the timeout-retransmission
	// path, so traffic into the victim degenerates into a retransmit
	// storm.
	RoleStarver
	numRoles
)

// String names the role with its stable configuration identifier.
func (r Role) String() string {
	switch r {
	case RoleJammer:
		return "jammer"
	case RoleSpoofer:
		return "spoofer"
	case RoleStarver:
		return "starver"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// ParseRole maps a configuration identifier back to its role.
func ParseRole(s string) (Role, bool) {
	for r := Role(0); r < numRoles; r++ {
		if r.String() == s {
			return r, true
		}
	}
	return 0, false
}

// Spec configures one adversary node.
type Spec struct {
	Role      Role
	Node      int       // the compromised node
	Victims   []int     // targeted nodes (non-empty, attacker excluded)
	Intensity float64   // attack probability per opportunity, in (0,1)
	Start     sim.Cycle // first active cycle
	Stop      sim.Cycle // first inactive cycle again (0 = never stops)
	Ops       int       // hostile op budget (0 = derive from the honest app)
}

// Validate rejects a spec the simulation cannot honour.
func (s Spec) Validate(nodes int) error {
	if s.Role < 0 || s.Role >= numRoles {
		return fmt.Errorf("adversary: unknown role %d", int(s.Role))
	}
	if s.Node < 0 || s.Node >= nodes {
		return fmt.Errorf("adversary: node %d out of range [0,%d)", s.Node, nodes)
	}
	if len(s.Victims) == 0 {
		return fmt.Errorf("adversary: node %d has no victims", s.Node)
	}
	for _, v := range s.Victims {
		if v < 0 || v >= nodes {
			return fmt.Errorf("adversary: victim %d out of range [0,%d)", v, nodes)
		}
		if v == s.Node {
			return fmt.Errorf("adversary: node %d cannot target itself", s.Node)
		}
	}
	if s.Intensity <= 0 || s.Intensity >= 1 {
		return fmt.Errorf("adversary: intensity %g outside (0,1)", s.Intensity)
	}
	if s.Stop > 0 && s.Stop <= s.Start {
		return fmt.Errorf("adversary: stop cycle %d not after start %d", s.Stop, s.Start)
	}
	if s.Ops < 0 {
		return fmt.Errorf("adversary: negative op budget %d", s.Ops)
	}
	return nil
}

// Validate checks a full adversary roster: each spec individually, and
// at most one spec per node (a node mounts one attack).
func Validate(specs []Spec, nodes int) error {
	seen := make(map[int]bool, len(specs))
	for _, s := range specs {
		if err := s.Validate(nodes); err != nil {
			return err
		}
		if seen[s.Node] {
			return fmt.Errorf("adversary: node %d configured twice", s.Node)
		}
		seen[s.Node] = true
	}
	return nil
}

// window is one active attack interval with its probability.
type window struct {
	p           float64
	start, stop sim.Cycle
}

func (w window) active(at sim.Cycle) bool {
	return at >= w.start && (w.stop == 0 || at < w.stop)
}

// Model is the optical-layer half of the roster: the network consults it
// on arrival resolution (spoofed headers, keyed by source) and on clean
// delivery (starved confirmations, keyed by destination). A query that
// matches no active window returns false without drawing randomness, so
// the draw schedule is a pure function of the configuration.
type Model struct {
	spoof  []window   // by attacker node; p == 0 means not a spoofer
	starve [][]window // by victim node; every starver targeting it
}

// NewModel compiles a validated roster for nodes nodes.
func NewModel(specs []Spec, nodes int) *Model {
	m := &Model{
		spoof:  make([]window, nodes),
		starve: make([][]window, nodes),
	}
	for _, s := range specs {
		w := window{p: s.Intensity, start: s.Start, stop: s.Stop}
		switch s.Role {
		case RoleSpoofer:
			m.spoof[s.Node] = w
		case RoleStarver:
			for _, v := range s.Victims {
				m.starve[v] = append(m.starve[v], w)
			}
		}
	}
	return m
}

// SpoofedHeader reports whether the arrival from src at cycle `at`
// carries a forged PID/~PID header. The draw runs on the receiving
// node's stream, passed in by the network from the receiver's context.
func (m *Model) SpoofedHeader(src int, at sim.Cycle, rng *sim.RNG) bool {
	w := m.spoof[src]
	if w.p == 0 || !w.active(at) { //lint:allow floateq zero-value-off sentinel on an assigned spec field
		return false
	}
	return rng.Bool(w.p)
}

// StarveConfirm reports whether the confirmation beam for a packet
// cleanly received at dst is suppressed. The draw runs on the receiving
// node's stream.
func (m *Model) StarveConfirm(dst int, at sim.Cycle, rng *sim.RNG) bool {
	for _, w := range m.starve[dst] {
		if w.active(at) && rng.Bool(w.p) {
			return true
		}
	}
	return false
}
