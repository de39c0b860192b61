package system

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fsoi/internal/workload"
)

// TestSmallL2EvictionGolden pins runs whose L2 slices are a hundredth of
// the paper's, so that the directory evicts thousands of lines (the suite's
// working sets never fill a 1024-line slice, and no other whole-system test
// reaches maybeEvict): victim choice, the recall of owners and sharers, and
// the reuse of evicted records. The hashes are the Canonical() of the same
// runs at the last commit that kept directory entries in a Go map and chose
// victims from a sorted address list (6d268c5), less the two always-zero
// fsoi.laneN.dropped lines that left the listing with the retry limit.
func TestSmallL2EvictionGolden(t *testing.T) {
	for _, c := range []struct {
		app   string
		lines int
		want  string
	}{
		{"radix", 16, "f15f9e473feb36b944ce44369379fd8de6b4ee2ca6a38894da8d5bbee4eecaf5"},
		{"lu", 8, "470b2cc543f043865aa6190681d5d5eeaebb74dcc62730fff7d865d2fe0ffaee"},
	} {
		app, ok := workload.ByName(c.app, 0.03)
		if !ok {
			t.Fatalf("unknown app %s", c.app)
		}
		cfg := Default(16, NetFSOI)
		cfg.Dir.SliceLines = c.lines
		cfg.MaxCycles = 2_000_000
		s := New(cfg)
		m := s.Run(app)
		if !m.Finished {
			t.Fatalf("%s with %d-line slices did not finish:\n%s", c.app, c.lines, s.Diagnose())
		}
		var evictions int64
		for i := 0; i < cfg.Nodes; i++ {
			evictions += s.Directory(i).Stats().Evictions
		}
		if evictions < 5000 {
			t.Fatalf("%s with %d-line slices evicted %d lines: the run no longer exercises L2 replacement", c.app, c.lines, evictions)
		}
		sum := sha256.Sum256([]byte(m.Canonical()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s with %d-line slices: canonical sha256 %s, the map-based directory had %s", c.app, c.lines, got, c.want)
		}
	}
}
