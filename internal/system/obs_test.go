package system

import (
	"bytes"
	"testing"

	"fsoi/internal/coherence"
	"fsoi/internal/noc"
	"fsoi/internal/obs"
)

// TestObserveDoesNotPerturbMetrics: the observability layer must be a
// pure read — an observed run and an unobserved run of the same
// configuration produce byte-identical canonical metrics. This is the
// contract that lets experiments -trace claim its tables match the
// untraced ones.
func TestObserveDoesNotPerturbMetrics(t *testing.T) {
	plain := runTiny(t, "jacobi", NetFSOI, 16, nil)
	observed := runTiny(t, "jacobi", NetFSOI, 16, func(c *Config) { c.Observe = true })
	if plain.Canonical() != observed.Canonical() {
		t.Fatal("Observe changed simulation results; it must be a pure read")
	}
	if observed.Obs == nil || observed.ObsRegistry == nil {
		t.Fatal("observed run did not expose its recorder and registry")
	}
	if plain.Obs != nil {
		t.Fatal("unobserved run must not carry a recorder")
	}
}

// TestObserveLifecycleAccounting cross-checks the recorder against the
// run's own metrics: every packet injects once and delivers once, and
// the registry saw every delivery.
func TestObserveLifecycleAccounting(t *testing.T) {
	m := runTiny(t, "jacobi", NetFSOI, 16, func(c *Config) { c.Observe = true })
	counts := m.Obs.CountByKind()
	packets := m.MetaPackets + m.DataPackets
	if counts[obs.KindInject] != packets {
		t.Fatalf("inject events = %d, delivered packets = %d; every delivered packet injects exactly once",
			counts[obs.KindInject], packets)
	}
	if counts[obs.KindDeliver] != packets {
		t.Fatalf("deliver events = %d, want %d", counts[obs.KindDeliver], packets)
	}
	regTotal := m.ObsRegistry.Class(obs.ClassMeta).Total() + m.ObsRegistry.Class(obs.ClassData).Total()
	if regTotal != packets {
		t.Fatalf("registry observed %d latencies, want %d", regTotal, packets)
	}
	if counts[obs.KindTxStart] == 0 || counts[obs.KindBackoff] != counts[obs.KindCollision] {
		t.Fatalf("FSOI lifecycle events inconsistent: tx-start=%d collision=%d backoff=%d",
			counts[obs.KindTxStart], counts[obs.KindCollision], counts[obs.KindBackoff])
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, m.Obs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("JSONL export empty")
	}
}

// TestObserveByteIdenticalAcrossRuns: two observed runs of the same
// seed export byte-identical traces — the whole point of the sorted,
// hand-rolled encoding.
func TestObserveByteIdenticalAcrossRuns(t *testing.T) {
	export := func() ([]byte, []byte) {
		m := runTiny(t, "mp3d", NetFSOI, 16, func(c *Config) { c.Observe = true })
		var j, c bytes.Buffer
		if err := obs.WriteJSONL(&j, m.Obs); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteChromeTrace(&c, m.Obs); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	j1, c1 := export()
	j2, c2 := export()
	if !bytes.Equal(j1, j2) {
		t.Fatal("JSONL traces differ across same-seed runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("chrome traces differ across same-seed runs")
	}
}

// TestRecycleResetsPacketState pins the free-list audit: a wire packet
// retired with retry counts, cycle stamps and its message must come back
// from the free-list fully scrubbed, not carrying the previous life's
// state, and a reused record must point its Payload back at itself.
func TestRecycleResetsPacketState(t *testing.T) {
	s := New(Default(16, NetFSOI))
	tr := transport{s}
	p := tr.packetFor(coherence.Msg{Type: coherence.WriteBack, Addr: 77, From: 1, To: 2, HasData: true, Requester: 1})
	if wireOf(&p.Packet) != p {
		t.Fatal("a wire packet's Payload must lead back to its record")
	}
	p.Retries = 7
	p.QueuingDelay, p.SchedulingDelay, p.NetworkDelay, p.ResolutionDelay = 11, 13, 17, 19
	p.IsReply, p.IsMemory, p.ExpectsDataReply = true, true, true
	s.recycle(p)
	if *p != (wirePacket{}) {
		t.Fatalf("recycle left state behind: %+v", *p)
	}
	// Free-lists are per source node: the retired record went onto node
	// 1's list (its Src), so node 1's next injection must reuse it.
	m := coherence.Msg{Type: coherence.ReqSh, From: 1, To: 4}
	reused := tr.packetFor(m)
	if reused != p {
		t.Fatal("free-list did not hand back the recycled record (LIFO reuse)")
	}
	if reused.Retries != 0 || reused.QueuingDelay != 0 || reused.NetworkDelay != 0 || reused.IsWriteback || reused.Type != noc.Meta {
		t.Fatalf("reused packet carries a previous life: %+v", reused.Packet)
	}
	if reused.msg != m || wireOf(&reused.Packet) != reused {
		t.Fatalf("reused record carries message %+v, want %+v behind its own Payload", reused.msg, m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a packet the transport did not wrap must be refused, not misread")
		}
	}()
	s.deliver(&noc.Packet{Src: 1, Dst: 2, Payload: "foreign"}, 0)
}

// TestObsAccessorsKeepWhatRunMerged: after Run, Obs and ObsRegistry hand
// back the recorder and registry already in Metrics instead of merging
// again (fsoisim calls both); before Run, Obs merges on demand and
// ObsRegistry is the one registry the run records into.
func TestObsAccessorsKeepWhatRunMerged(t *testing.T) {
	cfg := Default(16, NetFSOI)
	cfg.MaxCycles = 3_000_000
	cfg.Observe = true
	s := New(cfg)
	if a, b := s.Obs(), s.Obs(); a == nil || a == b || a.Len() != 0 {
		t.Fatal("before Run, Obs merges on each call and holds nothing yet")
	}
	if a, b := s.ObsRegistry(), s.ObsRegistry(); a == nil || a != b || a.Links() != 0 {
		t.Fatal("ObsRegistry is the run's one registry")
	}
	m := s.Run(tinyApp(t, "jacobi"))
	if m.Obs.Len() == 0 || m.ObsRegistry.Links() == 0 {
		t.Fatal("the run recorded nothing")
	}
	if s.Obs() != m.Obs || s.ObsRegistry() != m.ObsRegistry {
		t.Fatal("after Run, the accessors must return what Metrics holds")
	}
	if n := testing.AllocsPerRun(10, func() { s.Obs(); s.ObsRegistry() }); n != 0 {
		t.Fatalf("the accessors allocated %v times after Run", n)
	}
	off := New(Default(16, NetFSOI))
	off.Run(tinyApp(t, "jacobi"))
	if off.Obs() != nil || off.ObsRegistry() != nil {
		t.Fatal("with Observe off both accessors stay nil")
	}
}
