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
// victims from a sorted address list (6d268c5).
func TestSmallL2EvictionGolden(t *testing.T) {
	for _, c := range []struct {
		app   string
		lines int
		want  string
	}{
		{"radix", 16, "c3d76443930f38fa71bbab047f11d28c1c3d1487c10807534d499aa32b1b541b"},
		{"lu", 8, "84da62eec1e39b54a0eb59fcf0bc20c16820f3222bcdb72117d8275a103a2c4d"},
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
