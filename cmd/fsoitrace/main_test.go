package main

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"fsoi/internal/adversary"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
	"fsoi/internal/system"
	"fsoi/internal/workload"
)

// TestAnalyzeInvertsWriteJSONL: the events analyze rebuilds for -detect
// are the recorder's, field for field (class and lane included: a
// LaneNone inject must not come back as lane 0), while the truncation
// marker and a run separator are counted and never parsed as events.
func TestAnalyzeInvertsWriteJSONL(t *testing.T) {
	r := obs.NewRecorder(12)
	for i, k := range []obs.Kind{obs.KindFault, obs.KindInject, obs.KindTxStart, obs.KindCollision, obs.KindBackoff,
		obs.KindRetransmit, obs.KindConfirmDrop, obs.KindDeliver, obs.KindInject, obs.KindTxStart, obs.KindDrop} {
		e := obs.Event{
			At: sim.Cycle(100 + 3*i), Kind: k, ID: uint64(1 + i/8), Aux: int64(7 * i),
			Src: int32(i % 3), Dst: int32(15 - i%2), Attempt: int32(i % 4),
			Class: uint8(i % 2), Lane: int8(i % 2),
		}
		if k == obs.KindInject || k == obs.KindDeliver || k == obs.KindFault {
			e.Lane = obs.LaneNone
		}
		if k == obs.KindFault {
			e.ID, e.Dst = 0, -1
		}
		r.Emit(e)
	}
	for i := 0; i < 4; i++ { // the 12th is kept, three are lost
		r.Emit(obs.Event{At: 500, Kind: obs.KindDeliver, ID: 9, Aux: 40, Src: 2, Dst: 3, Class: obs.ClassData, Lane: obs.LaneNone})
	}
	if r.Lost() != 3 {
		t.Fatalf("lost = %d, want 3", r.Lost())
	}
	var file bytes.Buffer
	fmt.Fprintf(&file, "{\"run\":%q}\n", "fig9 jacobi fsoi")
	if err := obs.WriteJSONL(&file, r); err != nil {
		t.Fatal(err)
	}

	a, err := analyze(bytes.NewReader(file.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	if a.runs != 1 || a.truncated != 3 || a.lines != int64(r.Len())+2 {
		t.Fatalf("runs %d truncated %d lines %d, want 1, 3, %d", a.runs, a.truncated, a.lines, r.Len()+2)
	}
	if !slices.Equal(a.events, r.Events()) {
		for i := range r.Events() {
			if i >= len(a.events) || a.events[i] != r.Events()[i] {
				t.Fatalf("event %d: rebuilt %+v, recorded %+v", i, a.events[min(i, len(a.events)-1)], r.Events()[i])
			}
		}
		t.Fatalf("rebuilt %d events, recorded %d", len(a.events), r.Len())
	}
	if a.byKind["truncated"] != 0 || a.byKind[""] != 0 || a.byKind["deliver"] != 2 || a.drops != 1 {
		t.Fatalf("marker or separator counted as an event: %v, drops %d", a.byKind, a.drops)
	}

	plain, err := analyze(bytes.NewReader(file.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.events != nil || plain.reg.String() != a.reg.String() {
		t.Fatal("keepEvents must only add the rebuilt events")
	}
}

// TestOfflineDetectionMatchesOnline: fsoitrace -detect over a run's trace
// file reaches the verdicts the run itself reached, on a run whose
// verdicts are not empty.
func TestOfflineDetectionMatchesOnline(t *testing.T) {
	app, ok := workload.ByName("jacobi", 0.1)
	if !ok {
		t.Fatal("unknown app jacobi")
	}
	cfg := system.Default(16, system.NetFSOI)
	cfg.Detect = true
	cfg.Adversaries = []adversary.Spec{
		{Role: adversary.RoleJammer, Node: 15, Victims: []int{0}, Intensity: 0.9},
		{Role: adversary.RoleJammer, Node: 14, Victims: []int{0}, Intensity: 0.9},
	}
	m := system.New(cfg).Run(app)
	if !m.Finished || len(m.Detection.Flagged) == 0 {
		t.Fatalf("finished %v with %d flagged links; the run must finish and the storm must be seen", m.Finished, len(m.Detection.Flagged))
	}
	var file bytes.Buffer
	if err := obs.WriteJSONL(&file, m.Obs); err != nil {
		t.Fatal(err)
	}
	a, err := analyze(&file, true)
	if err != nil {
		t.Fatal(err)
	}
	offline := obs.Detect(a.events, obs.DetectorConfig{})
	if got, want := offline.Table(), m.Detection.Table(); got != want {
		t.Fatalf("offline detection differs from the run's own\noffline:\n%s\nonline:\n%s", got, want)
	}
	if !slices.Equal(a.events, m.Obs.Events()) {
		t.Fatal("rebuilt events differ from the run's recording")
	}
}
