package adversary

import (
	"testing"

	"fsoi/internal/sim"
)

func TestParseRoleRoundTrip(t *testing.T) {
	for r := Role(0); r < numRoles; r++ {
		got, ok := ParseRole(r.String())
		if !ok || got != r {
			t.Fatalf("ParseRole(%q) = %v, %v", r.String(), got, ok)
		}
	}
	if _, ok := ParseRole("phaser"); ok {
		t.Fatal("unknown role must not parse")
	}
}

func TestSpecValidation(t *testing.T) {
	good := Spec{Role: RoleJammer, Node: 3, Victims: []int{0}, Intensity: 0.5}
	if err := good.Validate(16); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Role: numRoles, Node: 3, Victims: []int{0}, Intensity: 0.5},                        // unknown role
		{Role: RoleJammer, Node: 16, Victims: []int{0}, Intensity: 0.5},                     // node out of range
		{Role: RoleJammer, Node: 3, Intensity: 0.5},                                         // no victims
		{Role: RoleJammer, Node: 3, Victims: []int{16}, Intensity: 0.5},                     // victim out of range
		{Role: RoleJammer, Node: 3, Victims: []int{3}, Intensity: 0.5},                      // self-targeting
		{Role: RoleJammer, Node: 3, Victims: []int{0}, Intensity: 0},                        // intensity floor
		{Role: RoleJammer, Node: 3, Victims: []int{0}, Intensity: 1},                        // intensity ceiling
		{Role: RoleJammer, Node: 3, Victims: []int{0}, Intensity: 0.5, Start: 10, Stop: 10}, // empty window
		{Role: RoleJammer, Node: 3, Victims: []int{0}, Intensity: 0.5, Ops: -1},             // negative budget
	}
	for i, s := range bad {
		if err := s.Validate(16); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestRosterValidation(t *testing.T) {
	roster := []Spec{
		{Role: RoleJammer, Node: 15, Victims: []int{0}, Intensity: 0.5},
		{Role: RoleSpoofer, Node: 14, Victims: []int{0}, Intensity: 0.5},
	}
	if err := Validate(roster, 16); err != nil {
		t.Fatalf("valid roster rejected: %v", err)
	}
	dup := append(roster, Spec{Role: RoleStarver, Node: 15, Victims: []int{1}, Intensity: 0.5})
	if err := Validate(dup, 16); err == nil {
		t.Fatal("double-configured node 15 accepted")
	}
}

// drawSchedule replays a fixed query sequence against a model and
// returns the outcomes; the schedule is deterministic so two identical
// models must agree draw for draw.
func drawSchedule(m *Model) []bool {
	rng := sim.NewRNG(7).NewStream("test")
	var out []bool
	for at := sim.Cycle(0); at < 4096; at += 64 {
		out = append(out, m.SpoofedHeader(14, at, rng))
		out = append(out, m.StarveConfirm(0, at, rng))
	}
	return out
}

func TestModelDeterminism(t *testing.T) {
	roster := []Spec{
		{Role: RoleSpoofer, Node: 14, Victims: []int{0}, Intensity: 0.6},
		{Role: RoleStarver, Node: 15, Victims: []int{0}, Intensity: 0.6},
	}
	a := drawSchedule(NewModel(roster, 16))
	b := drawSchedule(NewModel(roster, 16))
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical models", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("intensity 0.6 over 128 queries produced no hits")
	}
}

func TestModelWindowGating(t *testing.T) {
	// Outside [Start, Stop) the model must answer false WITHOUT drawing:
	// the two rngs stay in lockstep, so a draw inside the window after
	// gated queries proves the gated queries consumed nothing.
	roster := []Spec{
		{Role: RoleSpoofer, Node: 14, Victims: []int{0}, Intensity: 0.999, Start: 100, Stop: 200},
	}
	m := NewModel(roster, 16)
	rng := sim.NewRNG(7).NewStream("test")
	ref := sim.NewRNG(7).NewStream("test")
	if m.SpoofedHeader(14, 50, rng) || m.SpoofedHeader(14, 200, rng) {
		t.Fatal("spoof fired outside the active window")
	}
	if m.SpoofedHeader(13, 150, rng) {
		t.Fatal("spoof fired for a non-spoofer source")
	}
	if got, want := m.SpoofedHeader(14, 150, rng), ref.Bool(0.999); got != want {
		t.Fatal("gated queries consumed randomness: in-window draw diverged from reference")
	}
}
