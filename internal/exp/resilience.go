package exp

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"fsoi/internal/adversary"
	"fsoi/internal/config"
	"fsoi/internal/obs"
	"fsoi/internal/stats"
	"fsoi/internal/system"
)

// defaultIntensities spans the hostile duty-cycle range: at 0.3 an
// attacker still looks like a busy honest node, at 0.9 it saturates its
// victim's receiver nearly every slot.
var defaultIntensities = []float64{0.3, 0.6, 0.9}

// attackers places two hostile nodes at the top of the id range:
// nodes-1 and nodes-2 have different parities, so between them they
// exercise both receiver banks of the src%Receivers assignment.
func attackers(nodes int) []int { return []int{nodes - 1, nodes - 2} }

// specsFor builds the two-attacker roster for one (role, intensity)
// point. Both attackers target node 0, the directory-home hot spot.
func specsFor(role adversary.Role, intensity float64, nodes int) []adversary.Spec {
	var specs []adversary.Spec
	for _, a := range attackers(nodes) {
		specs = append(specs, adversary.Spec{
			Role: role, Node: a, Victims: []int{0}, Intensity: intensity,
		})
	}
	return specs
}

// truePositive decides whether one flagged link localizes the attack:
// any link touching a hostile node (its transmit storm, or the victim's
// replies straight back to it), or any link into a declared victim (the
// congestion epicenter honest senders pile onto). A flag elsewhere is a
// false positive — blame pinned on bystander traffic.
func truePositive(link obs.Link, hostile map[int]bool, victims map[int]bool) bool {
	return hostile[link.Src] || hostile[link.Dst] || victims[link.Dst]
}

// Resilience is the registered "resilience" experiment (ROADMAP item 4):
// adversary role x intensity x node count, measuring honest-traffic
// degradation against an attack-free control and the detector's
// precision and latency. The control run doubles as the false-positive
// gate: with no attacker present the detector must flag nothing. It is
// resilienceFlags' runner with no flag set.
func Resilience(o Options) Result { return runAtDefaults(resilienceFlags, o) }

// resilienceFlags is the "resilience" entry's Flags: the three axes of
// the grid.
func resilienceFlags(fs *flag.FlagSet) func() (Runner, error) {
	roles := fs.String("roles", "", "resilience: comma-separated adversary roles to sweep (default jammer,spoofer,starver)")
	intensities := fs.String("intensities", "", "resilience: comma-separated attack intensities in (0,1) (default 0.3,0.6,0.9; 0.3,0.9 below -scale 0.2)")
	nodes := fs.String("nodes", "", "resilience: comma-separated node counts (default 16,64; 16 below -scale 0.2)")
	return func() (Runner, error) {
		rs, err := parseList(*roles, func(f string) (adversary.Role, error) {
			r, ok := adversary.ParseRole(f)
			if !ok {
				return r, fmt.Errorf("unknown role %q", f)
			}
			return r, nil
		})
		if err != nil {
			return nil, fmt.Errorf("bad -roles: %v", err)
		}
		is, err := parseList(*intensities, func(f string) (float64, error) {
			v, err := strconv.ParseFloat(f, 64)
			if err == nil && (v <= 0 || v >= 1) {
				err = fmt.Errorf("intensity %g outside (0,1)", v)
			}
			return v, err
		})
		if err != nil {
			return nil, fmt.Errorf("bad -intensities: %v", err)
		}
		ns, err := parseList(*nodes, func(f string) (int, error) {
			v, err := strconv.Atoi(f)
			if err == nil {
				err = config.Check("nodes", float64(v))
			}
			if err == nil {
				_, err = system.MeshDim(v)
			}
			return v, err
		})
		if err != nil {
			return nil, fmt.Errorf("bad -nodes: %v", err)
		}
		return func(o Options) Result { return resilienceSweep(o, rs, is, ns) }, nil
	}
}

// resilienceSweep runs the resilience grid over the given roles,
// intensities, and node counts; a nil axis means its default, thinned
// at bench scale. The honest workload is the first app of the selected
// suite.
func resilienceSweep(o Options, roles []adversary.Role, intensities []float64, nodeCounts []int) Result {
	bench := o.Scale < 0.2
	if roles == nil {
		roles = []adversary.Role{adversary.RoleJammer, adversary.RoleSpoofer, adversary.RoleStarver}
	}
	if intensities == nil {
		intensities = defaultIntensities
		if bench {
			intensities = []float64{0.3, 0.9}
		}
	}
	if nodeCounts == nil {
		nodeCounts = []int{16, 64}
		if bench {
			nodeCounts = []int{16} // benches skip the 64-node half
		}
	}
	apps := o.suite()[:1]

	// Per node count, one attack-free control then the full (role,
	// intensity) grid, all mutually independent.
	var cfgs []system.Config
	for _, nodes := range nodeCounts {
		control := o.config(system.NetFSOI, nodes)
		control.Detect = true
		cfgs = append(cfgs, control)
		for _, role := range roles {
			for _, in := range intensities {
				cfg := control
				cfg.Adversaries = specsFor(role, in, nodes)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	ms, wedged := runSuite(o, apps, cfgs...)

	t := stats.NewTable("nodes", "role", "intensity", "honest slowdown",
		"lat ratio", "flagged", "precision", "detect@")
	vals := map[string]float64{}
	var b strings.Builder
	victims := map[int]bool{0: true}
	var control system.Metrics
	for c, cfg := range cfgs {
		m, nodes := ms[c][0], cfg.Nodes
		if len(cfg.Adversaries) == 0 {
			control = m
			controlFlags := len(control.Detection.Flagged)
			vals[fmt.Sprintf("control_flags_n%d", nodes)] = float64(controlFlags)
			fmt.Fprintf(&b, "n=%d control: %d cycles, mean latency %.1f, %d links flagged (must be 0)\n",
				nodes, control.Cycles, control.Latency.MeanTotal(), controlFlags)
			continue
		}
		role, in := cfg.Adversaries[0].Role, cfg.Adversaries[0].Intensity
		hostile := map[int]bool{}
		for _, a := range cfg.Adversaries {
			hostile[a.Node] = true
		}
		slowdown := float64(m.HonestFinish) / float64(control.Cycles)
		latRatio := m.Latency.MeanTotal() / control.Latency.MeanTotal()
		tp := 0
		detectAt := int64(-1)
		for _, f := range m.Detection.Flagged {
			if truePositive(f.Link, hostile, victims) {
				tp++
				if detectAt < 0 || f.FlaggedAt < detectAt {
					detectAt = f.FlaggedAt
				}
			}
		}
		precision := 1.0
		if n := len(m.Detection.Flagged); n > 0 {
			precision = float64(tp) / float64(n)
		}
		at := "-"
		if detectAt >= 0 {
			at = fmt.Sprint(detectAt)
		}
		t.AddRow(fmt.Sprint(nodes), role.String(), fmt.Sprintf("%.1f", in),
			fmt.Sprintf("%.3f", slowdown), fmt.Sprintf("%.3f", latRatio),
			fmt.Sprint(len(m.Detection.Flagged)), fmt.Sprintf("%.2f", precision), at)
		key := fmt.Sprintf("%s_i%.1f_n%d", role, in, nodes)
		vals["slowdown_"+key] = slowdown
		vals["lat_ratio_"+key] = latRatio
		vals["flagged_"+key] = float64(len(m.Detection.Flagged))
		vals["precision_"+key] = precision
		vals["detect_at_"+key] = float64(detectAt)
	}
	b.WriteString("\n")
	b.WriteString(t.String())
	b.WriteString("\ntwo attackers (nodes-1, nodes-2: both receiver parities) target node 0.\n")
	b.WriteString("honest slowdown = honest finish cycle / attack-free run length; detect@ is the\n")
	b.WriteString("first cycle a true-positive link crossed a detection threshold (- = missed).\n")
	return Result{
		Title:      "Resilience: honest-traffic degradation and attack detection",
		Text:       b.String(),
		Values:     vals,
		Unfinished: wedged,
	}
}
