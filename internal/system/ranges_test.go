package system_test

import (
	"math"
	"testing"

	"fsoi/internal/config"
	"fsoi/internal/mesh"
	"fsoi/internal/system"
)

// TestValidateRejectsOutOfRangeMeshOptions: a bandwidth fraction outside
// (0, 1] or a router depth outside [1, mesh.MaxRouterCycles] used to run
// silently at the paper's full-rate 4-stage mesh. Their ranges are the
// rows of their spec keys, each refused in one line naming the key, and
// Default states the paper's mesh, so no zero stands for "unset".
func TestValidateRejectsOutOfRangeMeshOptions(t *testing.T) {
	paper := mesh.PaperMesh(4)
	if d := system.Default(16, system.NetMesh); d.MeshBandwidthFrac != paper.BandwidthFrac || d.MeshRouterCycles != paper.RouterCycles {
		t.Fatalf("Default's mesh: fraction %v, %d cycles; want PaperMesh's %v and %d",
			d.MeshBandwidthFrac, d.MeshRouterCycles, paper.BandwidthFrac, paper.RouterCycles)
	}
	for _, c := range []struct {
		keys, want string // want "" = valid
	}{
		{`"mesh_bandwidth_frac": 0.5, "router_cycles": 2`, ""},
		{`"mesh_bandwidth_frac": 1, "router_cycles": 4`, ""},
		{`"mesh_bandwidth_frac": 0`, "config: mesh_bandwidth_frac is 0; want (0, 1]"},
		{`"mesh_bandwidth_frac": 1.5`, "config: mesh_bandwidth_frac is 1.5; want (0, 1]"},
		{`"mesh_bandwidth_frac": -0.5`, "config: mesh_bandwidth_frac is -0.5; want (0, 1]"},
		{`"router_cycles": 0`, "config: router_cycles is 0; want [1, 64]"},
		{`"router_cycles": -1`, "config: router_cycles is -1; want [1, 64]"},
		{`"router_cycles": 64`, ""},
		{`"router_cycles": 65`, "config: router_cycles is 65; want [1, 64]"},
		{`"router_cycles": 1000000000`, "config: router_cycles is 1000000000; want [1, 64]"}, // the wake calendar would be gigabytes
	} {
		spec, err := config.Parse([]byte(`{"network": "mesh", ` + c.keys + `}`))
		if err != nil {
			t.Fatal(err)
		}
		r, err := spec.Build()
		if c.want == "" && err != nil || c.want != "" && (err == nil || err.Error() != c.want) {
			t.Errorf("%s: Build() = %v, want %q", c.keys, err, c.want)
		}
		if err == nil {
			system.New(r.Config) // the calendar of the deepest pipeline too
		}
	}
	if err := config.Check("mesh_bandwidth_frac", math.NaN()); err == nil {
		t.Errorf("a NaN fraction: Check() = %v", err)
	}
}
