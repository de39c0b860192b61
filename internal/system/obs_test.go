package system

import (
	"bytes"
	"testing"

	"fsoi/internal/adversary"
	"fsoi/internal/coherence"
	"fsoi/internal/fault"
	"fsoi/internal/noc"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
	"fsoi/internal/workload"
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

// countByKind tallies a recording's events per kind.
func countByKind(r *obs.Recorder) map[obs.Kind]int64 {
	counts := make(map[obs.Kind]int64)
	for _, e := range r.Events() {
		counts[e.Kind]++
	}
	return counts
}

// TestObserveLifecycleAccounting cross-checks the recorder against the
// run's own metrics: every packet injects once and delivers once, and
// the registry is the fold of the recording.
func TestObserveLifecycleAccounting(t *testing.T) {
	m := runTiny(t, "jacobi", NetFSOI, 16, func(c *Config) { c.Observe = true })
	counts := countByKind(m.Obs)
	packets := m.MetaPackets + m.DataPackets
	if counts[obs.KindInject] != packets {
		t.Fatalf("inject events = %d, delivered packets = %d; every delivered packet injects exactly once",
			counts[obs.KindInject], packets)
	}
	if counts[obs.KindDeliver] != packets {
		t.Fatalf("deliver events = %d, want %d", counts[obs.KindDeliver], packets)
	}
	if m.ObsRegistry.String() != m.Obs.Registry().String() {
		t.Fatal("the registry is not the fold of the recorded deliveries")
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

// TestObsIsTheRunsOneRecorder: Obs hands back the one recorder the run
// records into, before Run and after it (where Metrics holds the same
// one), and allocates nothing. Metrics.ObsRegistry is that log folded
// by Recorder.Registry, whose class totals and collision counts obs'
// differential tests hold to a reference. With Observe off both are nil.
func TestObsIsTheRunsOneRecorder(t *testing.T) {
	cfg := Default(16, NetFSOI)
	cfg.MaxCycles = 3_000_000
	cfg.Observe = true
	s := New(cfg)
	rec := s.Obs()
	if rec == nil || rec.Len() != 0 {
		t.Fatal("before Run, Obs is the run's empty recorder")
	}
	m := s.Run(tinyApp(t, "jacobi"))
	if m.Obs.Len() == 0 || m.Obs != rec || s.Obs() != rec {
		t.Fatal("Obs and Metrics must hand back the recorder the run recorded into")
	}
	if n := testing.AllocsPerRun(10, func() { s.Obs() }); n != 0 {
		t.Fatalf("Obs allocated %v times", n)
	}
	if reg := m.ObsRegistry; reg == nil || reg.String() != m.Obs.Registry().String() {
		t.Fatal("Metrics.ObsRegistry is not the fold of Metrics.Obs")
	}
	off := New(Default(16, NetFSOI))
	if om := off.Run(tinyApp(t, "jacobi")); off.Obs() != nil || om.Obs != nil || om.ObsRegistry != nil {
		t.Fatal("with Observe off the recorder and the registry stay nil")
	}
}

// TestEveryNetworkRecordsInCycleOrder: the recorder only appends, so its
// log is in cycle order only because the engine fires events in it. Every
// network, fault annotations included on FSOI, must record a log that is
// non-decreasing in At.
func TestEveryNetworkRecordsInCycleOrder(t *testing.T) {
	for _, name := range Networks() {
		m := runTiny(t, "mp3d", NetworkKind(name), 16, func(c *Config) {
			c.Observe = true
			if c.Net == NetFSOI {
				c.Fault.MarginPenaltyDB, c.Fault.VCSELFailProb = 2, 0.2
			}
		})
		events := m.Obs.Events()
		if len(events) == 0 || name == string(NetFSOI) && countByKind(m.Obs)[obs.KindFault] == 0 {
			t.Fatalf("%s recorded %d events, fault annotations among them on FSOI", name, len(events))
		}
		for i := 1; i < len(events); i++ {
			if events[i].At < events[i-1].At {
				t.Fatalf("%s: event %d at cycle %d follows one at cycle %d", name, i, events[i].At, events[i-1].At)
			}
		}
	}
}

// TestFoldsSideBySideMatchSerial: collect folds the registry and the
// detector over the finished log side by side; each must equal the same
// fold taken serially afterwards. The observed golden run and a
// jammer/spoofer roster that the detector flags both count.
func TestFoldsSideBySideMatchSerial(t *testing.T) {
	for _, c := range []struct {
		name  string
		nodes int
		app   string
		scale float64
		setup func(*Config)
	}{
		{"fsoi-64-faulty", 64, "mp3d", 0.01, faultyRoster},
		{"jammer-spoofer-16", 16, "jacobi", 0.1, func(c *Config) {
			c.Detect = true
			c.Adversaries = append(jammerRoster(adversary.RoleJammer, 16, 0.9),
				adversary.Spec{Role: adversary.RoleSpoofer, Node: 13, Victims: []int{1}, Intensity: 0.5})
		}},
	} {
		app, ok := workload.ByName(c.app, c.scale)
		if !ok {
			t.Fatalf("unknown app %s", c.app)
		}
		cfg := Default(c.nodes, NetFSOI)
		cfg.MaxCycles = 3_000_000
		c.setup(&cfg)
		_, m := mustRun(t, cfg, app)
		if got, want := m.ObsRegistry.String(), m.Obs.Registry().String(); got != want {
			t.Fatalf("%s: the registry collect folded differs from a serial fold\n got:\n%s\nwant:\n%s", c.name, got, want)
		}
		serial := m.Obs.Detect(obs.DetectorConfig{WindowCycles: cfg.DetectWindow})
		if got, want := m.Detection.Table(), serial.Table(); got != want {
			t.Fatalf("%s: the detection collect folded differs from a serial fold\n got:\n%s\nwant:\n%s", c.name, got, want)
		}
		if len(m.Detection.Flagged) == 0 {
			t.Fatalf("%s: the roster flags no link, so the verdicts compared are empty", c.name)
		}
	}
}

// TestEveryNetworkKeepsPacketInvariants folds each network's log into a
// per-packet record: every packet id is injected exactly once and
// delivered at most once, never before it was injected, and a deliver's
// Aux (the packet's end-to-end latency) is its cycle less its inject's.
// FSOI runs a second time with corrupted packets and dropped
// confirmations, whose retransmissions land payloads twice.
func TestEveryNetworkKeepsPacketInvariants(t *testing.T) {
	type run struct {
		name  string
		fault fault.Config
	}
	var runs []run
	for _, name := range Networks() {
		runs = append(runs, run{name: name})
	}
	runs = append(runs, run{string(NetFSOI), fault.Config{MarginPenaltyDB: 3, ConfirmDropProb: 0.05}})
	for _, r := range runs {
		name := r.name
		m := runTiny(t, "mp3d", NetworkKind(name), 16, func(c *Config) {
			c.Observe = true
			c.Fault = r.fault
		})
		type life struct {
			injectAt  sim.Cycle
			delivered bool
		}
		packets := make(map[uint64]*life)
		delivered := 0
		for i, e := range m.Obs.Events() {
			p := packets[e.ID]
			switch e.Kind {
			case obs.KindInject:
				if p != nil {
					t.Fatalf("%s: event %d %+v injects packet %d a second time (first at cycle %d)", name, i, e, e.ID, p.injectAt)
				}
				packets[e.ID] = &life{injectAt: e.At}
			case obs.KindDeliver:
				switch {
				case p == nil:
					t.Fatalf("%s: event %d %+v delivers packet %d, never injected", name, i, e, e.ID)
				case p.delivered:
					t.Fatalf("%s: event %d %+v delivers packet %d a second time", name, i, e, e.ID)
				case e.Aux != int64(e.At-p.injectAt):
					t.Fatalf("%s: event %d %+v: latency %d, but injected at cycle %d, %d cycles before",
						name, i, e, e.Aux, p.injectAt, e.At-p.injectAt)
				}
				p.delivered = true
				delivered++
			}
		}
		if delivered == 0 {
			t.Fatalf("%s: the log delivers no packet", name)
		}
		if r.fault.Enabled() && m.FaultCounters.Get("duplicate_deliveries") == 0 {
			t.Fatalf("%s with faults: no payload landed twice, so no duplicate was tried", name)
		}
	}
}
