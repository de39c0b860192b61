package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
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
		obs.KindRetransmit, obs.KindConfirmDrop, obs.KindDeliver, obs.KindInject, obs.KindTxStart, obs.KindCollision} {
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
	if a.byKind["truncated"] != 0 || a.byKind[""] != 0 || a.byKind["deliver"] != 2 || a.byKind["collision"] != 2 {
		t.Fatalf("marker or separator counted as an event: %v", a.byKind)
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
	// The verdict is explained, offline as online: the jammer's link into
	// its victim crossed the flood rule, and the row says by how much.
	explained := false
	_, why, _ := strings.Cut(offline.Table(), "\nwhy (")
	for _, line := range strings.Split(why, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || f[0] != "15->0" || f[1] != "flood" {
			continue
		}
		var peak, threshold, margin int64
		if _, err := fmt.Sscan(f[3]+" "+f[4]+" "+strings.TrimPrefix(f[len(f)-2], "+"), &peak, &threshold, &margin); err != nil {
			t.Fatalf("unreadable explanation row %q: %v", line, err)
		}
		if f[2] != "peak-att" || threshold != offline.FloodThreshold || margin != peak-threshold || margin < 0 || !strings.Contains(line, "p75=") {
			t.Fatalf("explanation row %q: want peak-att, threshold %d, the p75 baseline and margin = observed - threshold", line, offline.FloodThreshold)
		}
		explained = true
	}
	if !explained {
		t.Fatalf("no row explains why 15->0 was flagged for flooding:\n%s", offline.Table())
	}
	if !slices.Equal(a.events, m.Obs.Events()) {
		t.Fatal("rebuilt events differ from the run's recording")
	}
}

// TestAnalyzeRejectsNodeIDsOutOfRange: an id that does not fit an
// obs.Event would alias another link in the registry and the detector;
// it is refused with its line number, like a malformed line.
func TestAnalyzeRejectsNodeIDsOutOfRange(t *testing.T) {
	ok := `{"at":1,"ev":"deliver","id":1,"src":-1,"dst":2147483647,"class":"meta","lane":"-","attempt":0,"aux":4}` + "\n"
	if a, err := analyze(strings.NewReader(ok), true); err != nil || len(a.events) != 1 || !strings.Contains(a.reg.LinkTable(0), "-1->2147483647") {
		t.Fatalf("ids at the edges of the range must pass: %v", err)
	}
	for _, bad := range []string{
		`{"at":2,"ev":"deliver","id":2,"src":4294967296,"dst":1,"aux":4}`, // 1<<32: would alias src 0
		`{"at":2,"ev":"collision","id":2,"src":0,"dst":2147483648}`,
		`{"at":2,"ev":"tx-start","id":2,"src":-2,"dst":1}`,
		`{"at":2,"ev":"some-future-kind","src":0,"dst":-4294967295}`,
	} {
		for _, keep := range []bool{false, true} {
			_, err := analyze(strings.NewReader(ok+"\n"+bad+"\n"), keep)
			if err == nil || !strings.HasPrefix(err.Error(), "line 2: node id out of range") {
				t.Fatalf("%s (detect %v): error %v, want line 2 refused", bad, keep, err)
			}
		}
	}
	// Lines that carry no endpoints are not events.
	if _, err := analyze(strings.NewReader(`{"run":"x","src":-9}`+"\n"+`{"ev":"truncated","aux":3,"dst":-9}`+"\n"), true); err != nil {
		t.Fatalf("separator and marker lines have no node ids to check: %v", err)
	}
}

// TestBadFlagsExitTwoWithOneLine: a window the detector cannot use (0
// no longer stands for the default), or one given without -detect
// (where it would change nothing), is refused before any input is read,
// with one line on stderr. The default is the detector's own window.
func TestBadFlagsExitTwoWithOneLine(t *testing.T) {
	trace := `{"at":1,"ev":"deliver","id":1,"src":0,"dst":1,"class":"meta","lane":"meta","attempt":0,"aux":4}` + "\n"
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-detect", "-window", "-5"}, 2},
		{[]string{"-window", "100"}, 2},
		{[]string{"-window", "0"}, 2},
		{[]string{"-detect", "-window", "0"}, 2},
		{[]string{"-nosuch"}, 2},
		{[]string{"-detect", "-window", "100"}, 0},
		{[]string{"-detect"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, strings.NewReader(trace), &stdout, &stderr)
		if code != c.code {
			t.Errorf("fsoitrace %v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		if lines := strings.Count(stderr.String(), "\n"); c.code == 2 && (lines != 1 || !strings.HasPrefix(stderr.String(), "fsoitrace: ")) {
			t.Errorf("fsoitrace %v: stderr %q, want one fsoitrace: line", c.args, stderr.String())
		}
		if c.code == 0 && !strings.Contains(stdout.String(), "contention anomaly detection") {
			t.Errorf("fsoitrace %v: no detector report in %q", c.args, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, strings.NewReader(""), &stdout, &stderr)
	if want := fmt.Sprintf("(default %d)", obs.DefaultWindowCycles); !strings.Contains(stderr.String(), want) {
		t.Errorf("fsoitrace -h: %q, want -window's %s", stderr.String(), want)
	}
}

// FuzzAnalyze feeds the JSONL reader arbitrary bytes. It must return an
// error or an analysis, never panic; every table must render; and what it
// rebuilt must survive the trip back through obs.WriteJSONL, which is
// also what holds obs.ParseKind to Kind.String.
func FuzzAnalyze(f *testing.F) {
	r := obs.NewRecorder(6)
	for i, k := range []obs.Kind{obs.KindFault, obs.KindInject, obs.KindTxStart, obs.KindCollision, obs.KindBackoff, obs.KindDeliver, obs.KindRetransmit} {
		r.Emit(obs.Event{At: sim.Cycle(3 * i), Kind: k, ID: uint64(i), Aux: int64(i), Src: int32(i % 3), Dst: int32(i%2) - 1, Attempt: int32(i), Class: uint8(i % 2), Lane: int8(i%3) - 1})
	}
	var file bytes.Buffer
	file.WriteString("{\"run\":\"fig9 jacobi fsoi\"}\n\n")
	if err := obs.WriteJSONL(&file, r); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Bytes())
	f.Add([]byte(`{"at":2,"ev":"deliver","src":4294967296,"dst":1}`))
	f.Add([]byte(`{"at":9,"ev":"Kind(200)","src":20,"dst":3,"attempt":-1,"lane":"?","class":"data"}` + "\n" + `{"at":"x"}`))
	f.Add([]byte("{\"ev\":\"collision\",\"src\":1,\"dst\":1}\n{\"ev\":\"collision\",\"src\":17}\nnot json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := analyze(bytes.NewReader(data), true)
		if err != nil {
			return
		}
		_ = a.countsTable() + a.heatMap(4) + a.retryCDF() + a.reg.ClassTable() + a.reg.LinkTable(4)
		again := obs.NewRecorder(0)
		for _, e := range a.events {
			if e.Src < -1 || e.Dst < -1 {
				t.Fatalf("rebuilt event with a node id below -1: %+v", e)
			}
			if k, ok := obs.ParseKind(e.Kind.String()); !ok || k != e.Kind {
				t.Fatalf("ParseKind(%q) = %v, %v", e.Kind.String(), k, ok)
			}
			again.Emit(e)
		}
		var out bytes.Buffer
		if err := obs.WriteJSONL(&out, again); err != nil {
			t.Fatal(err)
		}
		b, err := analyze(&out, true)
		if err != nil {
			t.Fatalf("a trace written by WriteJSONL was refused: %v", err)
		}
		if !slices.Equal(b.events, again.Events()) {
			t.Fatalf("round trip changed the events:\n got %+v\nwant %+v", b.events, again.Events())
		}
		obs.Detect(b.events, obs.DetectorConfig{})
	})
}
