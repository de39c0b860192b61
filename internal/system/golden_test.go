package system

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsoi/internal/adversary"
	"fsoi/internal/obs"
	"fsoi/internal/workload"
)

// goldenDir holds the listing of every pinned run, one file per row of
// goldenRuns, named after the row. A missing file is written
// and fails its test: to rebaseline, delete the files that moved, run
// `go test ./internal/system -run Golden` and review the text diff.
const goldenDir = "testdata/golden"

// goldenRun is one pinned run: app at scale on nodes of net, with setup's
// changes to the default config, check's assertions that the run still
// reaches what it pins, and the listing it pins (Canonical() when listing
// is nil).
type goldenRun struct {
	test    string // the entry point that runs it
	name    string // its subtest and golden file
	net     NetworkKind
	nodes   int
	app     string
	scale   float64
	long    bool // skipped under -short
	setup   func(*Config)
	check   func(*testing.T, *System, Metrics)
	listing func(*testing.T, Metrics) string
}

var goldenRuns = []goldenRun{
	// Every interconnect but FSOI. The mesh, ideal and corona listings are
	// those of the last commit whose engine called every ticker on every
	// cycle (3f17ccb); the matrix and snake listings are those of d20fffb,
	// the last commit that built them through a registry of optical
	// topologies. The ideal networks' tick and the coherence outbox drain
	// sleep until woken, and Run jumps the cycles nobody is due in: only the
	// mesh and the crossbars keep an always-on ticker, so L0, Lr1 and Lr2
	// are the runs that jump.
	{test: "network", name: "mesh-16", net: NetMesh, nodes: 16, app: "mp3d", scale: 0.05},
	{test: "network", name: "L0-16", net: NetL0, nodes: 16, app: "mp3d", scale: 0.05},
	{test: "network", name: "Lr1-16", net: NetLr1, nodes: 16, app: "mp3d", scale: 0.05},
	{test: "network", name: "Lr2-16", net: NetLr2, nodes: 16, app: "mp3d", scale: 0.05},
	{test: "network", name: "corona-16", net: NetCorona, nodes: 16, app: "mp3d", scale: 0.05},
	{test: "network", name: "matrix-16", net: "matrix", nodes: 16, app: "mp3d", scale: 0.05},
	{test: "network", name: "snake-16", net: "snake", nodes: 16, app: "mp3d", scale: 0.05},
	{test: "network", name: "mesh-64", net: NetMesh, nodes: 64, app: "mp3d", scale: 0.01, long: true},
	{test: "network", name: "L0-64", net: NetL0, nodes: 64, app: "mp3d", scale: 0.01, long: true},

	// The directory's refusal path: 64-node jacobi on L0 at the smallest
	// scale that NACKs (0.1 takes 135 NACKs, 0.098 none). Its bytes move
	// whenever the L1's retry rule does; under a fixed 8-31 cycle retry
	// window this run never finished. The listing is that of the commit
	// that made the retry delay double per NACK (0c96155).
	{test: "nack", name: "nack-L0-64", net: NetL0, nodes: 64, app: "jacobi", scale: 0.1,
		check: func(t *testing.T, _ *System, m Metrics) {
			if m.Nacks == 0 {
				t.Fatal("took no NACK, so it no longer covers the retry rule")
			}
		}},

	// The busy-node sweep replaced 3·N per-cycle tickers. These listings
	// are the Canonical() of each run at the commit before that change
	// (5ec3599), less the two always-zero fsoi.laneN.dropped lines that
	// left the listing with the retry limit: the sweep must not move a
	// single metric. The 64-node run is faultyRoster's.
	{test: "sweep", name: "fsoi-64-faulty", net: NetFSOI, nodes: 64, app: "mp3d", scale: 0.01, setup: faultyRoster},
	{test: "sweep", name: "fsoi-256", net: NetFSOI, nodes: 256, app: "jacobi", scale: 0.002, long: true},

	// L2 slices a hundredth of the paper's, so that the directory evicts
	// thousands of lines (the suite's working sets never fill a 1024-line
	// slice, and no other whole-system test reaches maybeEvict): victim
	// choice, the recall of owners and sharers, and the reuse of evicted
	// records. The listings are those of the last commit that kept
	// directory entries in a Go map and chose victims from a sorted
	// address list (6d268c5), less the two always-zero fsoi.laneN.dropped
	// lines that left the listing with the retry limit.
	{test: "evict", name: "evict-radix-16", net: NetFSOI, nodes: 16, app: "radix", scale: 0.03,
		setup: sliceLines(16), check: evictsThousands},
	{test: "evict", name: "evict-lu-8", net: NetFSOI, nodes: 16, app: "lu", scale: 0.03,
		setup: sliceLines(8), check: evictsThousands},

	// What the observed run renders besides its canonical listing: the
	// registry's tables (3,969 links, sixteen of them ranked), the
	// detector's verdicts on its three flagged links, and the digests of
	// its two event-log exports. Each pins a text no canonical line holds.
	{test: "observed", name: "fsoi-64-faulty-registry", net: NetFSOI, nodes: 64, app: "mp3d", scale: 0.01, setup: faultyRoster,
		listing: func(_ *testing.T, m Metrics) string { return m.ObsRegistry.String() }},
	{test: "observed", name: "fsoi-64-faulty-detection", net: NetFSOI, nodes: 64, app: "mp3d", scale: 0.01, setup: faultyRoster,
		listing: func(_ *testing.T, m Metrics) string { return m.Detection.Table() }},
	{test: "observed", name: "fsoi-64-faulty-exports", net: NetFSOI, nodes: 64, app: "mp3d", scale: 0.01, setup: faultyRoster,
		listing: exportDigests},
}

func TestNetworkGolden(t *testing.T)         { checkGoldens(t, "network") }
func TestNackGolden(t *testing.T)            { checkGoldens(t, "nack") }
func TestSweepGoldenSerial(t *testing.T)     { checkGoldens(t, "sweep") }
func TestSmallL2EvictionGolden(t *testing.T) { checkGoldens(t, "evict") }
func TestObservedGolden(t *testing.T)        { checkGoldens(t, "observed") }

// faultyRoster switches on everything that reaches the FSOI tick path:
// faults, a jammer/spoofer/starver roster, observation and the detector.
func faultyRoster(c *Config) {
	faultyConfig(c)
	c.Detect = true
	c.TracePackets = 16
	c.Adversaries = []adversary.Spec{
		{Role: adversary.RoleJammer, Node: 63, Victims: []int{0}, Intensity: 0.9},
		{Role: adversary.RoleSpoofer, Node: 62, Victims: []int{1}, Intensity: 0.5},
		{Role: adversary.RoleStarver, Node: 5, Victims: []int{2}, Intensity: 0.3},
	}
}

// exportDigests lists the sha256 of the run's JSONL and Chrome-trace
// exports.
func exportDigests(t *testing.T, m Metrics) string {
	var b strings.Builder
	for _, x := range []struct {
		name  string
		write func(io.Writer, *obs.Recorder) error
	}{{"jsonl", obs.WriteJSONL}, {"chrome", obs.WriteChromeTrace}} {
		h := sha256.New()
		if err := x.write(h, m.Obs); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s sha256 %x\n", x.name, h.Sum(nil))
	}
	return b.String()
}

// TestGoldenFilesArePinned fails on a file in goldenDir that no row pins,
// so a renamed or deleted row leaves no stale listing behind.
func TestGoldenFilesArePinned(t *testing.T) {
	pinned := map[string]bool{}
	for _, g := range goldenRuns {
		pinned[g.name+".txt"] = true
	}
	files, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !pinned[f.Name()] {
			t.Errorf("%s: no golden row pins it", filepath.Join(goldenDir, f.Name()))
		}
	}
}

// checkGoldens runs every row of one entry point as a subtest and compares
// its listing byte for byte with the row's golden file.
func checkGoldens(t *testing.T, test string) {
	for _, g := range goldenRuns {
		if g.test != test {
			continue
		}
		t.Run(g.name, func(t *testing.T) {
			if g.long && testing.Short() {
				t.Skip("long run")
			}
			app, ok := workload.ByName(g.app, g.scale)
			if !ok {
				t.Fatalf("unknown app %s", g.app)
			}
			cfg := Default(g.nodes, g.net)
			cfg.MaxCycles = 3_000_000
			if g.setup != nil {
				g.setup(&cfg)
			}
			s, m := mustRun(t, cfg, app)
			if g.check != nil {
				g.check(t, s, m)
			}
			path := filepath.Join(goldenDir, g.name+".txt")
			got := m.Canonical()
			if g.listing != nil {
				got = g.listing(t, m)
			}
			want, err := os.ReadFile(path)
			if errors.Is(err, fs.ErrNotExist) {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s was missing: wrote it; review it and rerun", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				diffLines(t, path, string(want), got)
			}
		})
	}
}

// mustRun builds cfg, runs app on it and fails with the system's
// diagnosis when the run does not finish.
func mustRun(t *testing.T, cfg Config, app workload.App) (*System, Metrics) {
	t.Helper()
	s := New(cfg)
	m := s.Run(app)
	if !m.Finished {
		t.Fatalf("%s on %s (%d nodes) did not finish by cycle %d:\n%s", m.App, cfg.Net, cfg.Nodes, m.Cycles, s.Diagnose())
	}
	return s, m
}

func sliceLines(n int) func(*Config) {
	return func(c *Config) {
		c.Dir.SliceLines = n
		c.MaxCycles = 2_000_000
	}
}

func evictsThousands(t *testing.T, s *System, m Metrics) {
	var evictions int64
	for i := 0; i < m.Nodes; i++ {
		evictions += s.Directory(i).Stats().Evictions
	}
	if evictions < 5000 {
		t.Fatalf("evicted %d lines: the run no longer exercises L2 replacement", evictions)
	}
}
