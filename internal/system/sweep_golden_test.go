package system

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fsoi/internal/adversary"
	"fsoi/internal/workload"
)

// The busy-node sweep replaced 3·N per-cycle tickers. These hashes are
// the Canonical() of each run at the commit before that change
// (5ec3599), less the two always-zero fsoi.laneN.dropped lines that left
// the listing with the retry limit: the sweep must not move a single
// metric.
const (
	goldenFaulty64 = "ec68aecc766c5c1a6a4e2b2ea68b8144eb987badf5d7df676ca8a9ad22931234"
	goldenPlain256 = "a81e2a00f40cfddfa3a216bc3f12a8cadbc9b6311ad8a279c15da52e2e6d13be"
)

// goldenRun hashes the canonical metrics of one run. The 64-node runs
// switch on everything that reaches the FSOI tick path: faults, a
// jammer/spoofer/starver roster, observation and the detector.
func goldenRun(t *testing.T, nodes int) string {
	t.Helper()
	cfg := Default(nodes, NetFSOI)
	cfg.MaxCycles = 3_000_000
	name, scale := "jacobi", 0.002
	if nodes == 64 {
		name, scale = "mp3d", 0.01
		faultyConfig(&cfg)
		cfg.Detect = true
		cfg.TracePackets = 16
		cfg.Adversaries = []adversary.Spec{
			{Role: adversary.RoleJammer, Node: 63, Victims: []int{0}, Intensity: 0.9},
			{Role: adversary.RoleSpoofer, Node: 62, Victims: []int{1}, Intensity: 0.5},
			{Role: adversary.RoleStarver, Node: 5, Victims: []int{2}, Intensity: 0.3},
		}
	}
	app, ok := workload.ByName(name, scale)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	s := New(cfg)
	m := s.Run(app)
	if !m.Finished {
		t.Fatalf("%d nodes did not finish:\n%s", nodes, s.Diagnose())
	}
	sum := sha256.Sum256([]byte(m.Canonical()))
	return hex.EncodeToString(sum[:])
}

// TestSweepGoldenSerial pins the serial engine to the parent's output.
func TestSweepGoldenSerial(t *testing.T) {
	for _, c := range []struct {
		nodes int
		want  string
	}{
		{64, goldenFaulty64},
		{256, goldenPlain256},
	} {
		if c.nodes == 256 && testing.Short() {
			continue
		}
		if got := goldenRun(t, c.nodes); got != c.want {
			t.Errorf("%d nodes: canonical sha256 %s, parent commit had %s", c.nodes, got, c.want)
		}
	}
}
