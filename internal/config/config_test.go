package config

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fsoi/internal/system"
	"fsoi/internal/thermal"
	"fsoi/internal/workload"
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
// workload) without a word. Every range starts above 0, so each is one
// line naming its key, and none tells the user to write 0.
func TestBuildRejectsNegativeNumbers(t *testing.T) {
	keys := []string{
		"nodes", "scale", "seed", "meta_vcsels", "data_vcsels", "receivers", "window_w",
		"backoff_b", "out_queue", "max_backoff_slots", "confirm_timeout_slots", "detect_window",
		"memory_gbps", "memory_channels", "router_cycles", "mesh_bandwidth_frac", "trace_packets",
	}
	numeric := 0
	for _, k := range knobs {
		if k.in != nil {
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

// TestEveryRangeHoldsItsEndsOnly: each numeric key's range holds its
// closed ends and refuses what lies past either end, from a spec (as
// one line naming the key and the range) and through Check alike.
func TestEveryRangeHoldsItsEndsOnly(t *testing.T) {
	for _, k := range knobs {
		if k.in == nil {
			continue
		}
		lo, hi := k.in.lo, k.in.hi
		if err := Check(k.key, hi); (err == nil) == math.IsInf(hi, 1) {
			t.Errorf("%s: Check(%v) = %v on %v", k.key, hi, err, k.in)
		}
		if err := Check(k.key, lo); (err == nil) == k.in.openLo {
			t.Errorf("%s: Check(%v) = %v on %v", k.key, lo, err, k.in)
		}
		if err := Check(k.key, math.NaN()); err == nil {
			t.Errorf("%s: Check(NaN) accepted", k.key)
		}
		past := []float64{lo - 1, math.Nextafter(lo, -inf)}
		if !math.IsInf(hi, 1) {
			past = append(past, hi+1, math.Nextafter(hi, inf), 1e300)
		}
		for _, v := range past {
			raw, _ := json.Marshal(v)
			text := string(raw)
			want := "config: " + k.key + " is " + text + "; want " + k.in.String()
			if _, err := build(t, `{"`+k.key+`": `+text+`}`); err == nil || err.Error() != want {
				t.Errorf("%s %s: Build() = %v, want %q", k.key, text, err, want)
			}
			if err := Check(k.key, v); err == nil || err.Error() != want {
				t.Errorf("%s %s: Check() = %v, want %q", k.key, text, err, want)
			}
		}
	}
	if err := Check("network", 1); err == nil {
		t.Error(`Check("network") accepted a number`)
	}
	for s, want := range map[span]string{from(4, 15360): "[4, 15360]", over(0, 1): "(0, 1]", from(1, inf): "[1, +Inf)",
		over(1, 1<<32): "(1, 4294967296]", over(0, inf): "(0, +Inf)"} {
		if got := s.String(); got != want {
			t.Errorf("%#v prints %q, want %q", s, got, want)
		}
	}
}

// TestBuildNamesTheKeyOutOfRange: values that used to pass Build and then
// exhaust memory or panic in a constructor, and values whose error
// named a Go field or no key at all, are one line naming the key.
func TestBuildNamesTheKeyOutOfRange(t *testing.T) {
	for js, want := range map[string]string{
		`{"trace_packets": 2000000000}`:         "config: trace_packets is 2000000000; want [1, 65536]",
		`{"nodes": 15376}`:                      "config: nodes is 15376; want [4, 15360]",
		`{"window_w": 0.5}`:                     "config: window_w is 0.5; want [1, +Inf)",
		`{"mesh_bandwidth_frac": 1.5}`:          "config: mesh_bandwidth_frac is 1.5; want (0, 1]",
		`{"network": "mesh", "nodes": 1}`:       "config: nodes is 1; want [4, 15360]",
		`{"nodes": 15}`:                         "system: nodes is 15, not a perfect square",
		`{"nodes": 64, "memory_channels": 12}`:  "system: memory_channels is 12; a 64-node system attaches 1 to 8, each on its own node",
		`{"meta_vcsels": 73}`:                   "config: meta_vcsels is 73; want [1, 72]",
		`{"confirm_timeout_slots": 1e10}`:       "config: confirm_timeout_slots is 1e10; want [1, 4294967296]",
		`{"router_cycles": 65}`:                 "config: router_cycles is 65; want [1, 64]",
		`{"max_backoff_slots": 1}`:              "config: max_backoff_slots is 1; want (1, 4294967296]",
		`{"memory_channels": 0, "nodes": 1024}`: "config: memory_channels is 0; want [1, +Inf)",
		`{"scale": 1e300}`:                      "config: scale is 1e300; want (0, 2000]",
	} {
		if _, err := build(t, js); err == nil || err.Error() != want {
			t.Errorf("%s: Build() = %v, want %q", js, err, want)
		}
	}
}

// TestMaxScaleIsWhereNoRunCanFinish: the scale row ends where the
// longest app's threads take as many steps as system.Default allows
// cycles; a step costs at least one, so past it no run can finish.
func TestMaxScaleIsWhereNoRunCanFinish(t *testing.T) {
	longest := 0
	for _, a := range workload.Suite(workload.MaxScale) {
		longest = max(longest, a.Steps)
	}
	if limit := system.Default(16, system.NetFSOI).MaxCycles; int64(longest) != int64(limit) {
		t.Fatalf("at scale %v the longest app takes %d steps a thread; MaxCycles is %d", float64(workload.MaxScale), longest, limit)
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
		if r.Nodes > 64 {
			return
		}
		system.New(r.Config)
	})
}

// FuzzSpecRun: every spec Build accepts runs to an end, at a tiny scale
// under a small cycle cap, without a panic or a fatal error. Hitting the
// cap is not a failure here: whether a run is wedged is the watchdog's
// question, not the input surface's. Runs above 64 nodes are skipped for
// their cost. A number laid over one key of the spec reaches every
// range without a valid JSON text to mutate; seeds reach every range's
// ends and every section.
func FuzzSpecRun(f *testing.F) {
	for _, k := range knobs {
		if k.in != nil {
			f.Add([]byte(`{}`), k.key, k.in.lo)
			f.Add([]byte(`{"network":"mesh"}`), k.key, min(k.in.hi, 1e300))
		}
	}
	for _, seed := range []string{
		`{}`,
		`{"network":"mesh","nodes":4,"mesh_bandwidth_frac":0.25,"router_cycles":64}`,
		`{"network":"mesh","router_cycles":1,"trace_packets":1}`,
		`{"nodes":4,"memory_channels":1,"receivers":64,"meta_vcsels":72,"data_vcsels":360,"out_queue":1}`,
		`{"meta_vcsels":1,"data_vcsels":1,"receivers":1,"window_w":1,"backoff_b":1,"max_backoff_slots":1.0001}`,
		`{"window_w":1e300,"backoff_b":1e300,"max_backoff_slots":4294967296,"confirm_timeout_slots":4294967296}`,
		`{"detect":true,"detect_window":1,"trace_packets":65536,"seed":18446744073709551615}`,
		`{"memory_gbps":1e300,"scale":1e300,"app":"mp3d"}`,
		`{"optimizations":{},"faults":{"margin_penalty_db":2.5,"vcsel_fail_prob":0.5,"confirm_drop_prob":0.5,"droop_db_per_k":0.03}}`,
		`{"nodes":64,"adversaries":[{"role":"spoofer","node":3,"victims":[0,1],"intensity":0.9,"ops":1},
		  {"role":"starver","node":4,"victims":[0],"intensity":0.5,"start":1,"stop":2},
		  {"role":"jammer","node":63,"victims":[0],"intensity":0.99}]}`,
		`{"network":"corona","nodes":4}`, `{"network":"L0","memory_gbps":1}`,
	} {
		f.Add([]byte(seed), "", 0.0)
	}
	f.Fuzz(func(t *testing.T, data []byte, key string, value float64) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		if raw, err := json.Marshal(value); err == nil && key != "" {
			spec[key] = raw
		}
		r, err := spec.Build()
		if err != nil || r.Nodes > 64 {
			return
		}
		app, ok := workload.ByName(r.App, 0.001)
		if !ok {
			return // fsoisim refuses it as an unknown app
		}
		// A lower cap can refuse a memory slower than a line per cap.
		if r.MaxCycles = 20_000; r.Validate() != nil {
			return
		}
		system.New(r.Config).Run(app)
	})
}

// TestREADMEKeyTable: README's table of spec keys is rendered from the
// knobs table, one row per key, and fails when the two differ. To
// refresh it, paste the block this test prints.
func TestREADMEKeyTable(t *testing.T) {
	const begin, end = "<!-- knobs: generated from internal/config's knobs table (TestREADMEKeyTable) -->\n", "<!-- /knobs -->\n"
	def, err := Spec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(begin + "| key | flag | default | range | usage |\n|---|---|---|---|---|\n")
	for _, k := range knobs {
		var flag, value, in string
		if k.flag != "" {
			flag = "`-" + k.flag + "`"
		}
		if k.get != nil && !reflect.ValueOf(k.get(&def)).IsZero() {
			value = fmt.Sprint(k.get(&def))
		}
		if k.in != nil {
			in = k.in.String()
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", k.key, flag, value, in, strings.ReplaceAll(k.usage, "|", `\|`))
	}
	b.WriteString(end)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), begin)
	block, _, closed := strings.Cut(rest, end)
	if want := b.String(); !ok || !closed || begin+block+end != want {
		t.Errorf("README's key table differs from the knobs table; want:\n%s", want)
	}
}
