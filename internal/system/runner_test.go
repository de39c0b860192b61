package system

import (
	"bytes"
	"fmt"
	"testing"

	"fsoi/internal/adversary"
	"fsoi/internal/obs"
)

// circuit returns a closed walk that steps from every name to every other
// name: names[0] out to each other name and back, with the walk over
// names[1:] spliced in at the first visit to names[1].
func circuit(names []string) []string {
	walk := []string{names[0]}
	for i, next := range names[1:] {
		if i == 0 {
			walk = append(walk, circuit(names[1:])...)
		} else {
			walk = append(walk, next)
		}
		walk = append(walk, names[0])
	}
	return walk
}

// runnerJob is one run of the chain TestRunnerMatchesNew hands through a
// single Runner.
type runnerJob struct {
	label string
	app   string
	cfg   Config
	fresh bool // the run before has another shape, so nothing is reused
	// net, when set, is whether the run must build over the network of
	// the run before: "reused" or "new".
	net string
}

// digest is everything a run reports: its canonical form and, when it
// recorded, the registry tables and the JSONL export.
func digest(t *testing.T, m Metrics) string {
	t.Helper()
	out := m.Canonical()
	if m.Obs != nil {
		var b bytes.Buffer
		if err := obs.WriteJSONL(&b, m.Obs); err != nil {
			t.Fatal(err)
		}
		out += m.ObsRegistry.String() + b.String()
	}
	return out
}

// TestRunnerMatchesNew hands one Runner a chain in which every network
// follows every other at 16 nodes and then itself, so that its own
// storage is taken (the crossbars' networks excepted), a mesh of another router depth after a default one,
// whose network is refused, then a 64-node run, another L1 geometry,
// small L2 slices that evict (so a donor hands over a free list), faults,
// adversaries and observation. Each run must report exactly what
// New(cfg).Run does, and what it returned must not move while the runs
// after it reuse its storage.
func TestRunnerMatchesNew(t *testing.T) {
	apps := []string{"jacobi", "mp3d", "fft", "barnes"}
	var jobs []runnerJob
	for i, name := range circuit(Networks()) {
		kind, err := ParseNetwork(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, runnerJob{label: name, app: apps[i%len(apps)], cfg: Default(16, kind)})
	}
	jobs[0].fresh = true
	add := func(label, app string, nodes int, kind NetworkKind, mutate func(*Config)) {
		cfg := Default(nodes, kind)
		mutate(&cfg)
		jobs = append(jobs, runnerJob{label: label, app: app, cfg: cfg})
	}
	none := func(*Config) {}
	for i, name := range Networks() {
		add(name+" again", apps[(i+1)%len(apps)], 16, NetworkKind(name), none)
		add(name+" once more", apps[(i+2)%len(apps)], 16, NetworkKind(name), none)
		jobs[len(jobs)-1].net = "reused"
		if name == "corona" || name == "matrix" || name == "snake" {
			jobs[len(jobs)-1].net = "new" // the crossbars take no donor
		}
	}
	add("mesh", "mp3d", 16, NetMesh, none)
	add("mesh with 2-cycle routers", "fft", 16, NetMesh, func(c *Config) { c.MeshRouterCycles = 2 })
	jobs[len(jobs)-1].net = "new"
	add("64 nodes", "fft", 64, NetFSOI, none)
	add("16 nodes after 64", "mp3d", 16, NetFSOI, none)
	for i := len(jobs) - 2; i < len(jobs); i++ {
		jobs[i].fresh = true
	}
	add("256-line L1", "mp3d", 16, NetFSOI, func(c *Config) { c.L1.Lines = 256 })
	add("16-line L2 slices", "mp3d", 16, NetFSOI, func(c *Config) { c.Dir.SliceLines = 16 })
	add("8-line L2 slices", "fft", 16, NetMesh, func(c *Config) { c.Dir.SliceLines = 8 })
	add("faults", "jacobi", 16, NetFSOI, faultyConfig)
	add("adversaries", "jacobi", 16, NetFSOI, func(c *Config) {
		c.Adversaries = []adversary.Spec{{Role: adversary.RoleJammer, Node: 15, Victims: []int{0}, Intensity: 0.9}}
		c.Detect = true
	})
	add("observed", "mp3d", 16, NetFSOI, func(c *Config) { c.Observe = true })
	add("after observed", "barnes", 16, NetLr1, none)

	var r Runner
	got := make([]Metrics, len(jobs))
	snap := make([]string, len(jobs))
	for i, j := range jobs {
		j.cfg.Seed = uint64(7 + i)
		j.cfg.MaxCycles = 3_000_000
		app := tinyApp(t, j.app)
		want := digest(t, New(j.cfg).Run(app))
		donor := r.last
		got[i] = r.Run(j.cfg, app)
		if reused := donor != nil && r.last.engine == donor.engine; reused == j.fresh {
			t.Fatalf("job %d (%s): reused the last run's engine: %v, want %v", i, j.label, reused, !j.fresh)
		}
		if reused := donor != nil && r.last.net == donor.net; j.net != "" && reused != (j.net == "reused") {
			t.Fatalf("job %d (%s): reused the last run's network: %v, want %s", i, j.label, reused, j.net)
		}
		if !got[i].Finished {
			t.Fatalf("job %d (%s, %s) did not finish", i, j.label, j.app)
		}
		if snap[i] = digest(t, got[i]); snap[i] != want {
			diffLines(t, fmt.Sprintf("job %d (%s, %s after %s)", i, j.label, j.app, jobs[max(i-1, 0)].label), want, snap[i])
		}
	}
	for i, m := range got {
		if d := digest(t, m); d != snap[i] {
			diffLines(t, fmt.Sprintf("job %d (%s) after the later runs", i, jobs[i].label), snap[i], d)
		}
	}
}
