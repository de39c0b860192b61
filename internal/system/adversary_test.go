package system

import (
	"strings"
	"testing"

	"fsoi/internal/adversary"
	"fsoi/internal/obs"
	"fsoi/internal/workload"
)

// jammerRoster is the resilience sweep's attack shape: two hostile
// nodes at the top of the id range (both receiver parities) storming
// lines homed at node 0.
func jammerRoster(role adversary.Role, nodes int, intensity float64) []adversary.Spec {
	return []adversary.Spec{
		{Role: role, Node: nodes - 1, Victims: []int{0}, Intensity: intensity},
		{Role: role, Node: nodes - 2, Victims: []int{0}, Intensity: intensity},
	}
}

// runAttack executes one detection-enabled 16-node run at a scale large
// enough for the windowed detector to see past its warm-up exclusion.
func runAttack(t *testing.T, specs []adversary.Spec) Metrics {
	t.Helper()
	app, ok := workload.ByName("jacobi", 0.1)
	if !ok {
		t.Fatal("unknown app jacobi")
	}
	cfg := Default(16, NetFSOI)
	cfg.MaxCycles = 3_000_000
	cfg.Detect = true
	cfg.Adversaries = specs
	m := New(cfg).Run(app)
	if !m.Finished {
		t.Fatalf("run with %d adversaries did not finish", len(specs))
	}
	return m
}

func TestJammerDegradesHonestTrafficAndIsDetected(t *testing.T) {
	control := runAttack(t, nil)
	if n := len(control.Detection.Flagged); n != 0 {
		t.Fatalf("attack-free control flagged %d links: %+v", n, control.Detection.Flagged)
	}
	if control.AdversaryNodes != 0 || control.HonestFinish != 0 {
		t.Fatal("adversary metrics must stay zero without a roster")
	}

	m := runAttack(t, jammerRoster(adversary.RoleJammer, 16, 0.9))
	if m.AdversaryNodes != 2 {
		t.Fatalf("want 2 adversary nodes, got %d", m.AdversaryNodes)
	}
	if m.HonestFinish <= control.Cycles {
		t.Fatalf("collision storm must delay honest cores: honest finish %d vs control %d",
			m.HonestFinish, control.Cycles)
	}
	if m.Latency.MeanTotal() <= control.Latency.MeanTotal() {
		t.Fatalf("collision storm must raise mean latency: %.2f vs %.2f",
			m.Latency.MeanTotal(), control.Latency.MeanTotal())
	}
	if m.FSOI.SpoofedHeaders != 0 || m.FSOI.StarvedConfirms != 0 {
		t.Fatal("a pure-traffic jammer must not touch the optical layer")
	}
	if len(m.Detection.Flagged) == 0 {
		t.Fatal("detector missed the collision storm entirely")
	}
	// Precision: every flag must localize the attack — a link touching
	// an attacker, or inbound at the victim.
	hostile := map[int]bool{15: true, 14: true}
	for _, f := range m.Detection.Flagged {
		if !hostile[f.Src] && !hostile[f.Dst] && f.Dst != 0 {
			t.Errorf("false positive on bystander link %d->%d (%s)", f.Src, f.Dst, f.Reason)
		}
	}
	// Recall: at least one of the attackers' own transmit links flagged.
	attacker := false
	for _, f := range m.Detection.Flagged {
		if hostile[f.Src] {
			attacker = true
		}
	}
	if !attacker {
		t.Fatal("no attacker transmit link flagged: blame landed only on symptoms")
	}
}

func TestSpooferAndStarverTouchTheOpticalLayer(t *testing.T) {
	sp := runAttack(t, jammerRoster(adversary.RoleSpoofer, 16, 0.3))
	if sp.FSOI.SpoofedHeaders == 0 {
		t.Fatal("spoofer forged no headers")
	}
	if sp.FSOI.StarvedConfirms != 0 {
		t.Fatal("spoofer must not starve confirmations")
	}

	st := runAttack(t, jammerRoster(adversary.RoleStarver, 16, 0.6))
	if st.FSOI.StarvedConfirms == 0 {
		t.Fatal("starver suppressed no confirmations")
	}
	confirm := false
	for _, f := range st.Detection.Flagged {
		if f.Dst == 0 && hasReasonPart(f, "confirm") {
			confirm = true
		}
	}
	if !confirm {
		t.Fatalf("no victim-inbound link flagged for confirmation loss: %+v", st.Detection.Flagged)
	}
}

// hasReasonPart reports whether the "+"-joined reason list contains one
// specific rule name.
func hasReasonPart(f obs.LinkProfile, want string) bool {
	for _, r := range strings.Split(f.Reason, "+") {
		if r == want {
			return true
		}
	}
	return false
}

func TestAdversaryRunsAreDeterministic(t *testing.T) {
	roster := jammerRoster(adversary.RoleJammer, 16, 0.9)
	first := runAttack(t, roster)
	again := runAttack(t, roster)
	if a, b := first.Canonical(), again.Canonical(); a != b {
		diffLines(t, "same-seed adversary canonical", a, b)
	}
}

func TestAdversaryRosterRejectedAtBuild(t *testing.T) {
	jam := func(node, victim int) adversary.Spec {
		return adversary.Spec{Role: adversary.RoleJammer, Node: node, Victims: []int{victim}, Intensity: 0.5}
	}
	everyone := make([]adversary.Spec, 16)
	for i := range everyone {
		everyone[i] = jam(i, (i+1)%16)
	}
	for _, c := range []struct {
		net  NetworkKind
		bad  []adversary.Spec
		want string
	}{
		{NetFSOI, []adversary.Spec{jam(15, 15)}, "adversary"}, // self-targeting
		{NetFSOI, []adversary.Spec{jam(99, 0)}, "adversary"},  // out of range
		{NetFSOI, everyone, "honest node"},
		{NetMesh, []adversary.Spec{jam(15, 0)}, "FSOI shared medium"},
	} {
		cfg := Default(16, c.net)
		cfg.Adversaries = c.bad
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("roster %+v on %s: Validate() = %v, want an error containing %q", c.bad, c.net, err, c.want)
		}
	}
}
