package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsoi/internal/system"
	"fsoi/internal/thermal"
)

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 16 || cfg.Net != system.NetFSOI {
		t.Fatalf("defaults wrong: nodes=%d net=%v", cfg.Nodes, cfg.Net)
	}
	app, scale := s.AppAndScale()
	if app != "jacobi" || scale != 0.5 {
		t.Fatalf("workload defaults: %s %g", app, scale)
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

// TestBuildRejectsNegativeNumbers: zero is "default" in every numeric
// field, and a negative one used to run the default (or, for scale,
// a negative workload) without a word. Each is one line naming its key.
func TestBuildRejectsNegativeNumbers(t *testing.T) {
	for _, js := range []string{
		`{"nodes": -16}`, `{"scale": -1}`, `{"meta_vcsels": -1}`, `{"data_vcsels": -1}`,
		`{"receivers": -2}`, `{"window_w": -2.7}`, `{"backoff_b": -1.1}`, `{"out_queue": -8}`,
		`{"max_backoff_slots": -1}`, `{"confirm_timeout_slots": -1}`, `{"detect_window": -5}`,
		`{"memory_gbps": -5}`, `{"memory_channels": -4}`, `{"router_cycles": -1}`,
		`{"mesh_bandwidth_frac": -0.5}`, `{"trace_packets": -3}`,
	} {
		s, err := Parse([]byte(js))
		if err != nil {
			t.Fatalf("%s: %v", js, err)
		}
		key, _, _ := strings.Cut(js[2:], `"`)
		if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), key+" is -") || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: Build() = %v, want one line naming %q", js, err, key)
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
	app, scale := s.AppAndScale()
	if app != "mp3d" || scale != 0.25 {
		t.Fatal("workload overrides lost")
	}
}

func TestBuildRejectsBadNetwork(t *testing.T) {
	s := Spec{Network: "hypercube"}
	if _, err := s.Build(); err == nil {
		t.Fatal("unknown network must error")
	}
}

// TestBuildHandsMeshOptionsToValidate: the spec no longer drops a
// non-positive mesh option on the floor; what is out of range is an
// error, and what is in range arrives.
func TestBuildHandsMeshOptionsToValidate(t *testing.T) {
	cfg, err := Spec{Network: "mesh", MeshBandwidthFrac: 0.75, RouterCycles: 2}.Build()
	if err != nil || cfg.MeshBandwidthFrac != 0.75 || cfg.MeshRouterCycles != 2 {
		t.Fatalf("Build() = frac %v cycles %d, %v", cfg.MeshBandwidthFrac, cfg.MeshRouterCycles, err)
	}
	for _, s := range []Spec{
		{Network: "mesh", MeshBandwidthFrac: 1.5},
		{Network: "mesh", MeshBandwidthFrac: -0.5},
		{Network: "mesh", RouterCycles: -1},
	} {
		if _, err := s.Build(); err == nil {
			t.Errorf("%+v must error", s)
		}
	}
}

func TestBuildValidatesFSOI(t *testing.T) {
	s := Spec{Network: "fsoi", WindowW: 0.1} // below one slot
	if _, err := s.Build(); err == nil {
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

// FuzzSpecBuild pins the CLI contract: no JSON spec panics Parse or
// Build, and a spec Build accepts is one system.New accepts too — what
// a user can get wrong is an error, never a stack trace. Seeds are the
// five specs that used to panic in New plus the specs CI runs; those
// with "par_workers" are Parse errors since the key was withdrawn.
func FuzzSpecBuild(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"network":"mesh","par_workers":2}`,
		`{"nodes":20}`,
		`{"network":"mesh","adversaries":[{"role":"jammer","node":15,"victims":[0],"intensity":0.9}]}`,
		`{"network":"fsoi","par_workers":2,"optimizations":{"ack_elision":true}}`,
		`{"network":"Mesh"}`,
		`{"nodes":64,"network":"matrix"}`,
		`{"scale":-1}`, `{"memory_gbps":-5}`, `{"trace_packets":-3}`, `{"par_workers":-1}`,
		`{"nodes":16,"network":"fsoi","app":"mp3d","scale":0.05,"trace_packets":16,
		  "faults":{"margin_penalty_db":2.5,"vcsel_fail_prob":0.05,"confirm_drop_prob":0.05}}`,
		`{"nodes":64,"network":"fsoi","app":"fft","scale":0.01,"trace_packets":16,"par_workers":2,
		  "faults":{"margin_penalty_db":2.5,"vcsel_fail_prob":0.05,"confirm_drop_prob":0.05}}`,
		`{"nodes":16,"network":"fsoi","app":"jacobi","scale":0.1,"detect":true,"adversaries":[
		  {"role":"jammer","node":15,"victims":[0],"intensity":0.9},
		  {"role":"jammer","node":14,"victims":[0],"intensity":0.9}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		cfg, err := spec.Build()
		if err != nil {
			return
		}
		// Keep assembly cheap: these sizes cost memory,
		// not correctness.
		if cfg.Nodes > 64 || cfg.Memory.Channels > 64 || cfg.TracePackets > 1024 {
			return
		}
		system.New(cfg)
	})
}
