package system

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fsoi/internal/memory"
	"fsoi/internal/sim"
	"fsoi/internal/workload"
)

// tinyApp returns a short workload for fast integration runs.
func tinyApp(t *testing.T, name string) workload.App {
	t.Helper()
	app, ok := workload.ByName(name, 0.01)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return app
}

// diffLines fails with the lines where two multiline strings differ: up
// to ten, as "key: want → got" where both lines have the same key (the
// text before the first space), and a count of the rest.
func diffLines(t *testing.T, label, want, got string) {
	t.Helper()
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var shown []string
	moved := 0
	for i := range max(len(wl), len(gl)) {
		w, g := lineAt(wl, i), lineAt(gl, i)
		if w == g {
			continue
		}
		moved++
		if len(shown) == 10 {
			continue
		}
		wk, wv, _ := strings.Cut(w, " ")
		gk, gv, _ := strings.Cut(g, " ")
		if wk == gk {
			shown = append(shown, fmt.Sprintf("%s: %s → %s", wk, wv, gv))
		} else {
			shown = append(shown, fmt.Sprintf("line %d: %q → %q", i+1, w, g))
		}
	}
	if rest := moved - len(shown); rest > 0 {
		shown = append(shown, fmt.Sprintf("and %d more", rest))
	}
	t.Fatalf("%s: %d lines differ (want → got):\n  %s", label, moved, strings.Join(shown, "\n  "))
}

// lineAt returns line i, or "" past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

func runTiny(t *testing.T, name string, kind NetworkKind, nodes int, mutate func(*Config)) Metrics {
	t.Helper()
	cfg := Default(nodes, kind)
	cfg.MaxCycles = 3_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	_, m := mustRun(t, cfg, tinyApp(t, name))
	return m
}

func TestEveryNetworkCompletes(t *testing.T) {
	for _, kind := range []NetworkKind{NetFSOI, NetMesh, NetL0, NetLr1, NetLr2, NetCorona} {
		m := runTiny(t, "jacobi", kind, 16, nil)
		if m.Cycles <= 0 || m.Latency.Delivered == 0 {
			t.Fatalf("%v: degenerate run %+v", kind, m.Cycles)
		}
	}
}

func TestSixtyFourNodesComplete(t *testing.T) {
	m := runTiny(t, "fft", NetFSOI, 64, nil)
	if m.Nodes != 64 {
		t.Fatal("node count wrong")
	}
	mm := runTiny(t, "fft", NetMesh, 64, nil)
	if mm.Latency.MeanTotal() <= m.Latency.MeanTotal() {
		t.Fatalf("64-node mesh latency %.1f should exceed FSOI %.1f",
			mm.Latency.MeanTotal(), m.Latency.MeanTotal())
	}
}

func TestDeterminism(t *testing.T) {
	a := runTiny(t, "mp3d", NetFSOI, 16, nil)
	b := runTiny(t, "mp3d", NetFSOI, 16, nil)
	if a.Cycles != b.Cycles || a.MetaPackets != b.MetaPackets || a.DataPackets != b.DataPackets {
		t.Fatalf("same-seed runs differ: %d/%d vs %d/%d packets, %d vs %d cycles",
			a.MetaPackets, a.DataPackets, b.MetaPackets, b.DataPackets, a.Cycles, b.Cycles)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := runTiny(t, "mp3d", NetFSOI, 16, nil)
	b := runTiny(t, "mp3d", NetFSOI, 16, func(c *Config) { c.Seed = 2 })
	if a.Cycles == b.Cycles && a.MetaPackets == b.MetaPackets {
		t.Fatal("different seeds should perturb the run")
	}
}

func TestFSOILatencyBeatsMesh(t *testing.T) {
	f := runTiny(t, "ocean", NetFSOI, 16, nil)
	m := runTiny(t, "ocean", NetMesh, 16, nil)
	if f.Latency.MeanTotal() >= m.Latency.MeanTotal() {
		t.Fatalf("FSOI latency %.1f should beat mesh %.1f",
			f.Latency.MeanTotal(), m.Latency.MeanTotal())
	}
}

func TestLockHeavyAppOnBothSyncFabrics(t *testing.T) {
	sub := runTiny(t, "raytrace", NetFSOI, 16, nil)
	coh := runTiny(t, "raytrace", NetFSOI, 16, func(c *Config) { c.FSOI.Opt.BooleanSubscription = false })
	if sub.FSOI.ConfirmBits == 0 {
		t.Fatal("subscription sync must use confirmation bits")
	}
	if coh.FSOI.ConfirmBits > sub.FSOI.ConfirmBits {
		t.Fatal("coherent sync should not use more confirmation bits")
	}
}

func TestMeshSyncCompletes(t *testing.T) {
	m := runTiny(t, "raytrace", NetMesh, 16, nil)
	if m.SyncStall == 0 {
		t.Fatal("lock-heavy app must record sync stalls")
	}
}

func TestOptimizationsReduceCollisions(t *testing.T) {
	app, _ := workload.ByName("mp3d", 0.05)
	run := func(opt bool) Metrics {
		cfg := Default(16, NetFSOI)
		cfg.MaxCycles = 10_000_000
		if !opt {
			cfg.FSOI.Opt.AckElision = false
			cfg.FSOI.Opt.ReceiverScheduling = false
			cfg.FSOI.Opt.WritebackSplit = false
			cfg.FSOI.Opt.RetransmitHints = false
			cfg.FSOI.Opt.BooleanSubscription = false
		}
		m := New(cfg).Run(app)
		if !m.Finished {
			t.Fatal("run did not finish")
		}
		return m
	}
	off := run(false)
	on := run(true)
	if on.ElidedAcks == 0 {
		t.Fatal("ack elision inactive")
	}
	if on.MetaPackets >= off.MetaPackets {
		t.Fatalf("elision should cut meta packets: %d vs %d", on.MetaPackets, off.MetaPackets)
	}
}

func TestEnergyAccounting(t *testing.T) {
	f := runTiny(t, "lu", NetFSOI, 16, nil)
	m := runTiny(t, "lu", NetMesh, 16, nil)
	if f.Energy.Total() <= 0 || m.Energy.Total() <= 0 {
		t.Fatal("energy must be positive")
	}
	if f.Energy.Network >= m.Energy.Network {
		t.Fatalf("FSOI network energy %.2g should be far below mesh %.2g",
			f.Energy.Network, m.Energy.Network)
	}
	if f.AvgPowerW <= 0 || f.AvgPowerW > 1000 {
		t.Fatalf("implausible power %.1f W", f.AvgPowerW)
	}
}

func TestMemoryBandwidthMatters(t *testing.T) {
	slow := runTiny(t, "radix", NetFSOI, 16, nil)
	fast := runTiny(t, "radix", NetFSOI, 16, func(c *Config) { c.Memory.TotalGBps = 52.8 })
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("6x memory bandwidth should help: %d vs %d cycles", fast.Cycles, slow.Cycles)
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := Metrics{Cycles: 100}
	b := Metrics{Cycles: 200}
	if a.Speedup(b) != 2 {
		t.Fatal("speedup math wrong")
	}
	var zero Metrics
	if zero.Speedup(b) != 0 {
		t.Fatal("zero-cycle guard missing")
	}
}

func TestReplyHistogramPopulated(t *testing.T) {
	m := runTiny(t, "em3d", NetFSOI, 16, nil)
	if m.ReplyHist.Total() == 0 {
		t.Fatal("reply-latency histogram empty")
	}
	if m.ReplyHist.Mean() <= 0 {
		t.Fatal("reply latency mean must be positive")
	}
}

// TestReplyMeanIsTheRawMean: the run's reply-latency mean is the pooled
// mean of the latencies the L1s measured, not of their bucket floors,
// and an overflow sample counts at its own latency, not at 300 cycles.
func TestReplyMeanIsTheRawMean(t *testing.T) {
	cfg := Default(16, NetFSOI)
	cfg.MaxCycles = 3_000_000
	s := New(cfg)
	m := s.Run(tinyApp(t, "mp3d"))
	var sum float64
	var n int64
	for i := 0; i < cfg.Nodes; i++ {
		h := s.L1(i).Stats().MissHist
		sum += h.Mean() * float64(h.Total())
		n += h.Total()
	}
	if m.ReplyHist.Overflow() == 0 {
		t.Fatal("no reply past the last bucket: the run does not reach the overflow")
	}
	if want := sum / float64(n); n == 0 || math.Abs(m.ReplyHist.Mean()-want) > 1e-9*want {
		t.Fatalf("reply latency mean %v over %d replies, pooled raw mean %v", m.ReplyHist.Mean(), n, want)
	}
}

// TestNetworkKindStrings pins that a kind is its name: the constants
// spell the names the CLIs accept, and nothing else parses.
func TestNetworkKindStrings(t *testing.T) {
	for _, k := range []NetworkKind{NetFSOI, NetMesh, NetL0, NetLr1, NetLr2, NetCorona} {
		if got, err := ParseNetwork(string(k)); err != nil || got != k {
			t.Errorf("ParseNetwork(%q) = %q, %v", k, got, err)
		}
	}
	for _, bad := range []string{"", "Mesh", "optical"} {
		_, err := ParseNetwork(bad)
		if err == nil {
			t.Errorf("ParseNetwork(%q) accepted", bad)
			continue
		}
		for _, name := range Networks() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseNetwork(%q) error %q omits %q", bad, err, name)
			}
		}
	}
}

// TestEveryNetworkByName builds each listed network from its name
// alone: one namespace, one resolver, one way to reach corona.
func TestEveryNetworkByName(t *testing.T) {
	names := Networks()
	if want := []string{"L0", "Lr1", "Lr2", "corona", "fsoi", "matrix", "mesh", "snake"}; !slices.Equal(names, want) {
		t.Fatalf("Networks() = %v, want %v", names, want)
	}
	for _, name := range names {
		kind, err := ParseNetwork(name)
		if err != nil || string(kind) != name {
			t.Fatalf("ParseNetwork(%q) = %q, %v", name, kind, err)
		}
		m := runTiny(t, "jacobi", kind, 16, nil)
		if m.Net != name {
			t.Errorf("%s: Metrics.Net = %q", name, m.Net)
		}
		if name == "corona" {
			if want := runTiny(t, "jacobi", NetCorona, 16, nil); m.Canonical() != want.Canonical() {
				diffLines(t, "corona by name vs NetCorona", want.Canonical(), m.Canonical())
			}
		}
	}
}

// TestValidateRejectsUnrunnableMemoryBandwidth: a bandwidth so small
// that a line transfer outlasts MaxCycles, or overflows the cycle count
// into a negative delay (1e-300 GB/s used to panic in the engine with
// an event scheduled in the past), is refused; every bandwidth whose
// transfer fits still runs, a zero-cycle one included.
func TestValidateRejectsUnrunnableMemoryBandwidth(t *testing.T) {
	for _, c := range []struct {
		gbps      float64
		maxCycles sim.Cycle
		want      string // "" = valid
	}{
		{8.8, 40_000_000, ""},
		{52.8, 40_000_000, ""},
		{1e300, 40_000_000, ""}, // a line in 0 cycles
		{0.8448, 1000, ""},      // 16 nodes, 4 channels: 1000 cycles a line
		{0.8448, 999, "1e+03 cycles per 64-byte line, not a cycle count in [0, 999]"},
		{1e-300, 40_000_000, "1e-300 GB/s over 4 channels"},
		{-1, 40_000_000, "-1 GB/s"},
		{0, 40_000_000, "+Inf cycles"},
	} {
		cfg := Default(16, NetFSOI)
		cfg.Memory.TotalGBps, cfg.MaxCycles = c.gbps, c.maxCycles
		err := cfg.Validate()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n")) {
			t.Errorf("%v GB/s, MaxCycles %d: Validate() = %v, want one line containing %q", c.gbps, c.maxCycles, err, c.want)
		}
	}
}

// TestValidateRejectsSharedMemoryAttachNodes: a channel count is valid
// only while every channel has a node of its own. Past that,
// memory.AttachNodes wraps onto a node that has one, the second
// controller was never built, and LineOccupancyCycles still divided the
// bandwidth by every channel.
func TestValidateRejectsSharedMemoryAttachNodes(t *testing.T) {
	for _, c := range []struct {
		nodes, channels int
		want            string // "" = valid
	}{
		{4, 4, ""},
		{4, 5, "memory_channels is 5; a 4-node system attaches 1 to 4"},
		{16, 8, ""},
		{16, 9, "memory_channels is 9; a 16-node system attaches 1 to 8"},
		{64, 8, ""},
		{64, 12, "memory_channels is 12; a 64-node system attaches 1 to 8"},
		{64, 0, "memory_channels is 0"},
	} {
		cfg := Default(c.nodes, NetFSOI)
		cfg.Memory.Channels = c.channels
		err := cfg.Validate()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n")) {
			t.Errorf("%d nodes, %d channels: Validate() = %v, want one line containing %q", c.nodes, c.channels, err, c.want)
		}
		if err != nil {
			continue
		}
		seen := map[int]bool{}
		for _, node := range memory.AttachNodes(dimOf(c.nodes), c.channels) {
			if seen[node] {
				t.Errorf("%d nodes, %d channels: valid, but node %d hosts two channels", c.nodes, c.channels, node)
			}
			seen[node] = true
		}
	}
}

// TestParWorkersRunsOnTheSerialEngine: ParWorkers and Shards, which the
// benchmark's par2 workloads still set, select nothing. Validate accepts
// them on any network and sync fabric, the run is on the serial engine
// with the bytes of the same config without them, and a Runner reuses
// its donor's storage for it.
func TestParWorkersRunsOnTheSerialEngine(t *testing.T) {
	for _, c := range []Config{Default(16, NetMesh), Default(16, NetFSOI)} {
		c.ParWorkers, c.Shards = 2, 8
		c.FSOI.Opt.BooleanSubscription = false
		if err := c.Validate(); err != nil {
			t.Errorf("%s, ParWorkers 2, Shards 8: Validate() = %v", c.Net, err)
		}
	}
	app := tinyApp(t, "jacobi")
	serial := Default(16, NetFSOI)
	serial.MaxCycles = 3_000_000
	par := serial
	par.ParWorkers, par.Shards = 2, 2
	s := New(par)
	if s.WindowEngine() != nil {
		t.Fatal("ParWorkers 2 built the windowed engine")
	}
	want := New(serial).Run(app).Canonical()
	if got := s.Run(app).Canonical(); got != want {
		diffLines(t, "ParWorkers 2, Shards 2 against both 0", want, got)
	}
	var r Runner
	r.Run(serial, app)
	donor := r.last
	if got := r.Run(par, app).Canonical(); got != want {
		diffLines(t, "ParWorkers 2, Shards 2 on a Runner", want, got)
	}
	if r.last.engine != donor.engine {
		t.Fatal("the Runner built a ParWorkers config without its donor's engine")
	}
}

// TestNewPanicsWithValidateError pins the split between the two
// surfaces: Validate names what a flag or JSON spec got wrong, and New —
// whose signature cannot grow an error — refuses with the same text.
func TestNewPanicsWithValidateError(t *testing.T) {
	for want, mutate := range map[string]func(*Config){
		"unknown network":      func(c *Config) { c.Net = "nope" },
		"not a perfect square": func(c *Config) { c.Nodes = 15 },
	} {
		cfg := Default(16, NetFSOI)
		mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate() = %v, want an error containing %q", err, want)
			continue
		}
		func() {
			defer func() {
				if got := recover(); got != err.Error() {
					t.Errorf("New panicked with %v, want %q", got, err)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPacketCountsConsistent(t *testing.T) {
	m := runTiny(t, "shallow", NetFSOI, 16, nil)
	if m.MetaPackets == 0 || m.DataPackets == 0 {
		t.Fatal("both packet classes must flow")
	}
	if m.Invalidations == 0 {
		t.Fatal("a sharing workload must invalidate")
	}
}
