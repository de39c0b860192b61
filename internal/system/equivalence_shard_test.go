package system

import (
	"bytes"
	"strings"
	"testing"

	"fsoi/internal/obs"
	"fsoi/internal/sim"
	"fsoi/internal/workload"
)

// shardedRun executes one fault- and trace-enabled run at the given
// shard count and returns both byte-identity surfaces: the canonical
// metric serialization and the lifecycle-trace JSONL bytes.
func shardedRun(t *testing.T, name string, kind NetworkKind, nodes, shards int, scale float64, maxCycles sim.Cycle) (canon, trace string, m Metrics) {
	t.Helper()
	app, ok := workload.ByName(name, scale)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	cfg := Default(nodes, kind)
	cfg.MaxCycles = maxCycles
	cfg.Shards = shards
	cfg.Observe = true
	cfg.TracePackets = 16
	if kind == NetFSOI {
		faultyConfig(&cfg)
	}
	s := New(cfg)
	m = s.Run(app)
	if !m.Finished {
		t.Fatalf("%s on %v (%d nodes, %d shards) did not finish", name, kind, nodes, shards)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, m.Obs); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	if se := s.ShardEngine(); se != nil {
		if shards <= 1 {
			t.Fatal("shard engine selected for a serial config")
		}
		if kind == NetFSOI && se.UnderLookahead() != 0 {
			t.Errorf("%d of %d cross-shard handoffs violate FSOI's declared %d-cycle lookahead",
				se.UnderLookahead(), se.Handoffs(), se.Lookahead())
		}
	} else if shards > 1 {
		t.Fatal("serial engine selected for a sharded config")
	}
	return m.Canonical(), buf.String(), m
}

// diffLines reports the first line where two multiline strings diverge.
func diffLines(t *testing.T, label, a, b string) {
	t.Helper()
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := min(len(al), len(bl))
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			t.Fatalf("%s diverges at line %d:\n  serial:  %s\n  sharded: %s", label, i+1, al[i], bl[i])
		}
	}
	t.Fatalf("%s diverges in length: %d vs %d lines", label, len(al), len(bl))
}

// TestShardedEquivalence16 is the PR 4 equivalence harness extended to
// the sharded engine: a 16-node run with every fault model and the
// lifecycle trace enabled must be byte-identical — canonical metrics
// AND trace JSONL — between the serial engine and the exact sharded
// engine at 2, 3, and 4 shards. This is the in-repo twin of the
// shard-equivalence CI job.
func TestShardedEquivalence16(t *testing.T) {
	for _, kind := range []NetworkKind{NetFSOI, NetMesh} {
		wantCanon, wantTrace, _ := shardedRun(t, "mp3d", kind, 16, 1, 0.01, 3_000_000)
		for _, shards := range []int{2, 3, 4} {
			canon, trace, _ := shardedRun(t, "mp3d", kind, 16, shards, 0.01, 3_000_000)
			if canon != wantCanon {
				diffLines(t, string(kind)+" canonical metrics", wantCanon, canon)
			}
			if trace != wantTrace {
				diffLines(t, string(kind)+" trace JSONL", wantTrace, trace)
			}
		}
	}
}

// TestShardedEquivalence64 repeats the byte-identity check at 64 nodes
// with faults and tracing on; skipped under -short to keep the quick
// loop quick (CI runs it in full).
func TestShardedEquivalence64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node equivalence runs only without -short")
	}
	wantCanon, wantTrace, _ := shardedRun(t, "fft", NetFSOI, 64, 1, 0.01, 3_000_000)
	for _, shards := range []int{2, 4} {
		canon, trace, _ := shardedRun(t, "fft", NetFSOI, 64, shards, 0.01, 3_000_000)
		if canon != wantCanon {
			diffLines(t, "64-node canonical metrics", wantCanon, canon)
		}
		if trace != wantTrace {
			diffLines(t, "64-node trace JSONL", wantTrace, trace)
		}
	}
}

// TestSharded256Smoke is the sharded-only scale smoke: a 256-node CMP
// assembles and completes a short workload on the sharded engine. No
// serial twin is run — at this node count that is the point.
func TestSharded256Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node smoke runs only without -short")
	}
	app, ok := workload.ByName("jacobi", 0.002)
	if !ok {
		t.Fatal("unknown app jacobi")
	}
	cfg := Default(256, NetFSOI)
	cfg.MaxCycles = 3_000_000
	cfg.Shards = 8
	m := New(cfg).Run(app)
	if !m.Finished {
		t.Fatal("256-node sharded run did not finish")
	}
	if m.Nodes != 256 || m.Latency.Delivered == 0 {
		t.Fatalf("degenerate 256-node run: nodes=%d delivered=%d", m.Nodes, m.Latency.Delivered)
	}
}
