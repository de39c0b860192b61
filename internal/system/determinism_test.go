package system

import "testing"

// TestCrossRunDeterminismByteIdentical is the regression test for the
// repository's core claim: an identically configured run — including
// fault injection, the heaviest consumer of named RNG streams — is
// bit-identical across executions in the same process. The comparison
// is a byte-compare of the full canonical metric serialization, not a
// spot-check of a few counters; any divergence names the counters that
// differ.
func TestCrossRunDeterminismByteIdentical(t *testing.T) {
	a := runTiny(t, "mp3d", NetFSOI, 16, faultyConfig)
	if a.FaultCounters.Get("bit_errors") == 0 {
		t.Fatal("2.5 dB of lost margin must corrupt some packets")
	}
	if a.FaultCounters.Get("confirm_drops") == 0 {
		t.Fatal("5% confirmation drops must fire")
	}
	b := runTiny(t, "mp3d", NetFSOI, 16, faultyConfig)
	if ca, cb := a.Canonical(), b.Canonical(); ca != cb {
		diffLines(t, "same-seed faulty runs", ca, cb)
	}
}
