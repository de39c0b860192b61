package system

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fsoi/internal/workload"
)

// TestNetworkGolden pins every interconnect but FSOI (which
// sweep_golden_test.go pins) to canonical bytes. The mesh, ideal and
// corona rows are those of the last commit whose engine called every
// ticker on every cycle (3f17ccb); the matrix and snake rows are those
// of d20fffb, the last commit that built them through a registry of
// optical topologies. The ideal networks' tick and the coherence outbox
// drain sleep until woken, and Run jumps the cycles nobody is due in:
// only the mesh and the crossbars keep an always-on ticker, so L0, Lr1
// and Lr2 are the runs that jump.
func TestNetworkGolden(t *testing.T) {
	for _, c := range []struct {
		net   NetworkKind
		nodes int
		want  string
	}{
		{NetMesh, 16, "f8e225764945952ba61875103a51df0a9a23bd0a7395a0dc3366540d7d71aad5"},
		{NetL0, 16, "0c5fc32a23932d01c9c1041e614cff0c5e1cdb7504f1f4e10e048008dd0054cb"},
		{NetLr1, 16, "08022fddab1e033d6396c2e9f0db955058af673fc21a8fea0c21cb87a9046882"},
		{NetLr2, 16, "c90ace1e0dccf54309b665a847401a23ec6f190ff00a7505302b7ace915838ad"},
		{NetCorona, 16, "687c0cc4448c3a6f361913b0fffdd11613fc534e62166bd758ef68f3abfb181c"},
		{"matrix", 16, "703d3be58b4f1a5501cde6242fcb1b285e8a04a311335084fcab322c88a013e9"},
		{"snake", 16, "a3df9db4a05983dc3b52caeefb55a4d21809dc9986f3e4d4f040fb72d7a3fbc4"},
		{NetMesh, 64, "b909330b63115786b908b722efa96ffd91af7864d641d56f34d1458f455c8c53"},
		{NetL0, 64, "6d002eac1d1ad05397f67d9e302de354287b1109095785c61432684b6fbd66eb"},
	} {
		if c.nodes == 64 && testing.Short() {
			continue
		}
		scale := 0.05
		if c.nodes == 64 {
			scale = 0.01
		}
		app, _ := workload.ByName("mp3d", scale)
		cfg := Default(c.nodes, c.net)
		cfg.MaxCycles = 3_000_000
		s := New(cfg)
		m := s.Run(app)
		if !m.Finished {
			t.Fatalf("%s at %d nodes did not finish:\n%s", c.net, c.nodes, s.Diagnose())
		}
		sum := sha256.Sum256([]byte(m.Canonical()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s at %d nodes: canonical sha256 %s, want %s", c.net, c.nodes, got, c.want)
		}
	}
}

// TestNackGolden pins a run that drives the directory's refusal path:
// 64-node jacobi on L0 at the smallest scale that NACKs (0.1 takes 135
// NACKs, 0.098 none). Its bytes move whenever the L1's retry rule does.
// Under a fixed 8-31 cycle retry window this run never finished.
func TestNackGolden(t *testing.T) {
	app, _ := workload.ByName("jacobi", 0.1)
	cfg := Default(64, NetL0)
	cfg.MaxCycles = 3_000_000
	s := New(cfg)
	m := s.Run(app)
	if !m.Finished {
		t.Fatalf("did not finish:\n%s", s.Diagnose())
	}
	if m.Nacks == 0 {
		t.Fatal("took no NACK, so it no longer covers the retry rule")
	}
	sum := sha256.Sum256([]byte(m.Canonical()))
	if got, want := hex.EncodeToString(sum[:]), "abe7ca88b7a32a5e2c2daba5a11b77f125074e0ca37f8acd74ed4b92a0c13708"; got != want {
		t.Errorf("canonical sha256 %s, want %s", got, want)
	}
}
