package config

import (
	"encoding/json"
	"flag"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsoi/internal/system"
	"fsoi/internal/thermal"
)

// build parses and builds one JSON spec.
func build(t *testing.T, js string) (Run, error) {
	t.Helper()
	s, err := Parse([]byte(js))
	if err != nil {
		t.Fatalf("%s: %v", js, err)
	}
	return s.Build()
}

func TestParseDefaults(t *testing.T) {
	for _, js := range []string{`{}`, `null`} {
		r, err := build(t, js)
		if err != nil {
			t.Fatal(err)
		}
		if r.Nodes != 16 || r.Net != system.NetFSOI || r.App != "jacobi" || r.Scale != 0.5 {
			t.Fatalf("%s: defaults wrong: nodes=%d net=%v app=%s scale=%g", js, r.Nodes, r.Net, r.App, r.Scale)
		}
		if want := system.Default(16, system.NetFSOI); r.Seed != want.Seed || r.Memory != want.Memory || r.FSOI != want.FSOI {
			t.Fatalf("%s: not system.Default(16, fsoi) where no key is written", js)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"nodse": 16}`)); err == nil {
		t.Fatal("typos must fail loudly")
	}
	// The withdrawn engines' knobs are typos now.
	for _, key := range []string{"shards", "par_workers"} {
		js := `{"` + key + `": 2}`
		if _, err := Parse([]byte(js)); err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Fatalf(`%s: Parse() = %v, want an unknown-field error`, js, err)
		}
	}
}

// TestBuildRejectsNegativeNumbers: a numeric key written as 0 or less
// used to run the default (or, for a negative scale, a negative
// workload) without a word. Each is one line naming its key, and none
// tells the user to write 0.
func TestBuildRejectsNegativeNumbers(t *testing.T) {
	keys := []string{
		"nodes", "scale", "seed", "meta_vcsels", "data_vcsels", "receivers", "window_w",
		"backoff_b", "out_queue", "max_backoff_slots", "confirm_timeout_slots", "detect_window",
		"memory_gbps", "memory_channels", "router_cycles", "mesh_bandwidth_frac", "trace_packets",
	}
	numeric := 0
	for _, k := range knobs {
		if k.positive {
			numeric++
		}
	}
	if numeric != len(keys) {
		t.Fatalf("the table has %d numeric keys, the test %d", numeric, len(keys))
	}
	for _, key := range keys {
		for _, v := range []string{"0", "-1", "-0.5", "0.0"} {
			js := `{"` + key + `": ` + v + `}`
			_, err := build(t, js)
			if err == nil || !strings.Contains(err.Error(), key+" is "+v+";") || strings.Contains(err.Error(), "\n") ||
				strings.Contains(err.Error(), "0 =") {
				t.Errorf("%s: Build() = %v, want one line naming %q", js, err, key)
			}
		}
	}
}

// TestFlagIsItsKey: a flag given is its key's JSON value, checked as
// the key is, with an error that names the flag; -h's defaults are what
// Build applies.
func TestFlagIsItsKey(t *testing.T) {
	parse := func(args ...string) (Spec, error) {
		fs := flag.NewFlagSet("fsoisim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		given := Flags(fs)
		return given, fs.Parse(args)
	}
	given, err := parse("-nodes", "64", "-net", "mesh", "-app", "fft", "-scale", "0.02", "-seed", "7",
		"-membw", "52.8", "-trace", "5", "-detect", "-no-opt")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{"nodes": []byte(`64`), "network": []byte(`"mesh"`), "app": []byte(`"fft"`), "scale": []byte(`0.02`),
		"seed": []byte(`7`), "memory_gbps": []byte(`52.8`), "trace_packets": []byte(`5`), "detect": []byte(`true`),
		"optimizations": []byte(`{}`)}
	if !maps.EqualFunc(given, want, func(a, b json.RawMessage) bool { return string(a) == string(b) }) {
		t.Fatalf("flags gave %q, want %q", given, want)
	}
	// A boolean flag set false lays nothing: the spec's value stands.
	if given, err := parse("-detect", "-detect=false", "-no-opt=false"); err != nil || len(given) != 0 {
		t.Fatalf("-detect=false -no-opt=false gave %q, %v; want nothing", given, err)
	}
	for _, args := range [][]string{{"-trace", "-3"}, {"-seed", "0"}, {"-scale", "x"}, {"-nodes", "16 17"}} {
		if _, err := parse(args...); err == nil || !strings.Contains(err.Error(), "flag "+args[0]+":") {
			t.Errorf("%v: %v, want an error naming the flag", args, err)
		}
	}
	if _, err := build(t, `{"trace_packets": -3}`); err == nil || !strings.Contains(err.Error(), "config: trace_packets is -3;") {
		t.Errorf(`{"trace_packets": -3}: %v, want an error naming the key`, err)
	}

	fs := flag.NewFlagSet("fsoisim", flag.ContinueOnError)
	Flags(fs)
	for name, def := range map[string]string{
		"nodes": "16", "net": "fsoi", "app": "jacobi", "scale": "0.5", "seed": "1", "membw": "8.8",
		"trace": "", "detect": "", "no-opt": "",
	} {
		f := fs.Lookup(name)
		if _, got, _ := strings.Cut(f.Usage, " (default "); got != "" && got != def+")" || got == "" && def != "" {
			t.Errorf("-%s: usage %q, want default %q", name, f.Usage, def)
		}
	}
}

// TestBuildRejectsOneSlotBackoffCap: a backoff window capped at one slot
// or less retries colliding senders in lockstep forever, so the spec is
// refused in one line naming its key instead of running 40M cycles.
func TestBuildRejectsOneSlotBackoffCap(t *testing.T) {
	for _, js := range []string{`{"max_backoff_slots": 0.5}`, `{"max_backoff_slots": 1}`} {
		s, err := Parse([]byte(js))
		if err != nil {
			t.Fatalf("%s: %v", js, err)
		}
		if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "max_backoff_slots") || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: Build() = %v, want one line naming max_backoff_slots", js, err)
		}
	}
}

// TestBuildRejectsReceiversPastOneWord: a node keeps one bit per receiver
// in a 64-bit word, so 65 receivers are refused in one line naming the
// key, and 64 build.
func TestBuildRejectsReceiversPastOneWord(t *testing.T) {
	for _, tc := range []struct {
		js string
		ok bool
	}{{`{"receivers": 65}`, false}, {`{"receivers": 64}`, true}} {
		js, ok := tc.js, tc.ok
		s, err := Parse([]byte(js))
		if err != nil {
			t.Fatalf("%s: %v", js, err)
		}
		_, err = s.Build()
		if ok && err != nil {
			t.Errorf("%s: Build() = %v, want it to build", js, err)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), "receivers") || strings.Contains(err.Error(), "\n")) {
			t.Errorf("%s: Build() = %v, want one line naming receivers", js, err)
		}
	}
}

func TestBuildOverrides(t *testing.T) {
	s, err := Parse([]byte(`{
		"nodes": 64,
		"network": "fsoi",
		"app": "mp3d",
		"scale": 0.25,
		"seed": 9,
		"meta_vcsels": 2,
		"data_vcsels": 7,
		"receivers": 3,
		"window_w": 3.5,
		"backoff_b": 1.2,
		"memory_gbps": 52.8,
		"trace_packets": 32,
		"optimizations": {"ack_elision": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 64 || cfg.Seed != 9 {
		t.Fatal("node/seed overrides lost")
	}
	if cfg.FSOI.MetaVCSELs != 2 || cfg.FSOI.DataVCSELs != 7 || cfg.FSOI.Receivers != 3 {
		t.Fatal("lane overrides lost")
	}
	if cfg.FSOI.WindowW != 3.5 || cfg.FSOI.BackoffB != 1.2 {
		t.Fatal("backoff overrides lost")
	}
	if cfg.Memory.TotalGBps != 52.8 || cfg.TracePackets != 32 {
		t.Fatal("memory/trace overrides lost")
	}
	if !cfg.FSOI.Opt.AckElision || cfg.FSOI.Opt.RetransmitHints {
		t.Fatal("explicit optimizations must replace the default set")
	}
	if cfg.App != "mp3d" || cfg.Scale != 0.25 {
		t.Fatal("workload overrides lost")
	}
}

func TestBuildRejectsBadNetwork(t *testing.T) {
	if _, err := build(t, `{"network": "hypercube"}`); err == nil {
		t.Fatal("unknown network must error")
	}
}

// TestBuildHandsMeshOptionsToValidate: the spec no longer drops a
// non-positive mesh option on the floor; what is out of range is an
// error, and what is in range arrives.
func TestBuildHandsMeshOptionsToValidate(t *testing.T) {
	cfg, err := build(t, `{"network": "mesh", "mesh_bandwidth_frac": 0.75, "router_cycles": 2}`)
	if err != nil || cfg.MeshBandwidthFrac != 0.75 || cfg.MeshRouterCycles != 2 {
		t.Fatalf("Build() = frac %v cycles %d, %v", cfg.MeshBandwidthFrac, cfg.MeshRouterCycles, err)
	}
	for _, js := range []string{
		`{"network": "mesh", "mesh_bandwidth_frac": 1.5}`,
		`{"network": "mesh", "mesh_bandwidth_frac": -0.5}`,
		`{"network": "mesh", "router_cycles": -1}`,
	} {
		if _, err := build(t, js); err == nil {
			t.Errorf("%s must error", js)
		}
	}
}

func TestBuildValidatesFSOI(t *testing.T) {
	if _, err := build(t, `{"network": "fsoi", "window_w": 0.1}`); err == nil { // below one slot
		t.Fatal("invalid FSOI config must error")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{"network":"mesh","nodes":16}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Net != system.NetMesh {
		t.Fatal("network lost in round trip")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing files must error")
	}
}

func TestBuildFaultSection(t *testing.T) {
	s, err := Parse([]byte(`{
		"max_backoff_slots": 128,
		"confirm_timeout_slots": 6,
		"faults": {
			"margin_penalty_db": 2.5,
			"vcsel_fail_prob": 0.05,
			"confirm_drop_prob": 0.02,
			"droop_db_per_k": 0.03,
			"thermal_cooling": "microchannel"
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FSOI.MaxBackoffSlots != 128 || cfg.FSOI.ConfirmTimeoutSlots != 6 {
		t.Fatal("backoff cap / confirm timeout overrides lost")
	}
	f := cfg.Fault
	if !f.Enabled() {
		t.Fatal("fault section must enable injection")
	}
	if f.MarginPenaltyDB != 2.5 || f.VCSELFailProb != 0.05 || f.ConfirmDropProb != 0.02 {
		t.Fatal("fault knobs lost")
	}
	if !f.Thermal.Enabled || f.Thermal.Cooling != thermal.Microchannel {
		t.Fatal("thermal cooling lost")
	}
	if f.Thermal.PowerPerNodeW != 4 || f.Thermal.TauCycles != 100000 {
		t.Fatal("thermal defaults not applied")
	}
}

func TestBuildFaultOmittedStaysDisabled(t *testing.T) {
	s, err := Parse([]byte(`{"network": "fsoi"}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fault.Enabled() {
		t.Fatal("no faults section must mean no injection")
	}
}

func TestBuildFaultRejectsBadSections(t *testing.T) {
	bad := []string{
		`{"faults": {"margin_penalty_db": -1}}`,
		`{"faults": {"vcsel_fail_prob": 1.5}}`,
		`{"faults": {"thermal_cooling": "peltier", "droop_db_per_k": 0.1}}`,
		`{"faults": {"thermal_power_w": 4}}`,
	}
	for i, js := range bad {
		s, err := Parse([]byte(js))
		if err != nil {
			t.Fatalf("case %d failed to parse: %v", i, err)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("case %d: bad fault section must error", i)
		}
	}
}

// FuzzSpecBuild pins the CLI contract: no JSON spec, with one flag laid
// over it, panics Parse, Flags or Build, and a run Build accepts is one
// system.New accepts too — what a user can get wrong is an error, never a
// stack trace. Seeds are the five specs that used to panic in New plus
// the specs CI runs; those with "par_workers" are Parse errors since the
// key was withdrawn.
func FuzzSpecBuild(f *testing.F) {
	for _, seed := range []struct{ spec, flag, value string }{
		{`{}`, "nodes", "64"},
		{`{"network":"mesh","par_workers":2}`, "net", "fsoi"},
		{`{"nodes":20}`, "nodes", "16"},
		{`{"network":"mesh","adversaries":[{"role":"jammer","node":15,"victims":[0],"intensity":0.9}]}`, "net", "fsoi"},
		{`{"network":"fsoi","par_workers":2,"optimizations":{"ack_elision":true}}`, "no-opt", "true"},
		{`{"network":"Mesh"}`, "net", "Mesh"},
		{`{"nodes":64,"network":"matrix"}`, "trace", "0"},
		{`{"scale":-1}`, "scale", "0.02"}, {`{"memory_gbps":-5}`, "membw", "-5"},
		{`{"trace_packets":-3}`, "trace", "-3"}, {`{"par_workers":-1}`, "seed", "0"},
		{`{"seed":0,"receivers":0,"window_w":0}`, "detect", "false"},
		{`{"nodes":16,"network":"fsoi","app":"mp3d","scale":0.05,"trace_packets":16,
		  "faults":{"margin_penalty_db":2.5,"vcsel_fail_prob":0.05,"confirm_drop_prob":0.05}}`, "trace", "5"},
		{`{"nodes":64,"network":"fsoi","app":"fft","scale":0.01,"trace_packets":16,"par_workers":2,
		  "faults":{"margin_penalty_db":2.5,"vcsel_fail_prob":0.05,"confirm_drop_prob":0.05}}`, "membw", "52.8"},
		{`{"nodes":16,"network":"fsoi","app":"jacobi","scale":0.1,"detect":true,"adversaries":[
		  {"role":"jammer","node":15,"victims":[0],"intensity":0.9},
		  {"role":"jammer","node":14,"victims":[0],"intensity":0.9}]}`, "detect", "true"},
	} {
		f.Add([]byte(seed.spec), seed.flag, seed.value)
	}
	f.Fuzz(func(t *testing.T, data []byte, name, value string) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		fs := flag.NewFlagSet("fsoisim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		given := Flags(fs)
		if fs.Parse([]string{"-" + name + "=" + value}) != nil {
			return
		}
		maps.Copy(spec, given)
		r, err := spec.Build()
		if err != nil {
			return
		}
		// Keep assembly cheap: these sizes cost memory,
		// not correctness.
		if r.Nodes > 64 || r.Memory.Channels > 64 || r.TracePackets > 1024 {
			return
		}
		system.New(r.Config)
	})
}
