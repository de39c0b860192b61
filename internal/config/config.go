// Package config is the input surface of the simulator: a JSON spec
// whose top-level keys, and the fsoisim flags that set the same keys,
// decode through one table (knobs) into a Run, so parameter studies can
// be scripted without recompiling (fsoisim -config study.json). The
// nested sections have types of their own: FaultSpec, OptSpec and
// AdversarySpec.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"fsoi/internal/adversary"
	"fsoi/internal/core"
	"fsoi/internal/fault"
	"fsoi/internal/mesh"
	"fsoi/internal/noc"
	"fsoi/internal/sim"
	"fsoi/internal/system"
	"fsoi/internal/thermal"
	"fsoi/internal/workload"
)

// Run is what a spec selects: the system configuration and the
// workload to run on it.
type Run struct {
	system.Config
	App   string
	Scale float64
}

// Spec is a parsed JSON spec: the raw value of each top-level key
// written, every key one of the knobs. A key left out keeps the
// default Build applies; a number outside its key's range is refused.
type Spec map[string]json.RawMessage

// knob is one top-level key of the spec.
type knob struct {
	key, flag, usage string // flag is fsoisim's for the key, if it has one
	// on is the JSON value a boolean flag lays over the key; a flag
	// without it lays its own text, as a JSON string unless the key is
	// a number.
	on  string
	in  *span // a number's range; nil for any other key
	set func(r *Run, raw []byte) error
	get func(r *Run) any // the value set writes, for the flag's default
}

// span is a number's range [lo, hi], open at lo when openLo; an
// infinite hi is open.
type span struct {
	lo, hi float64
	openLo bool
}

var inf = math.Inf(1)

// from is the range [lo, hi]; over is (lo, hi].
func from(lo, hi float64) span { return span{lo: lo, hi: hi} }
func over(lo, hi float64) span { return span{lo: lo, hi: hi, openLo: true} }

// holds reports whether v lies in the range; NaN never does.
func (s span) holds(v float64) bool {
	return (v > s.lo || !s.openLo && v >= s.lo) && v <= s.hi
}

// String writes the range in interval notation: [1, 64], (0, +Inf).
func (s span) String() string {
	lo, hi := "[", "]"
	if s.openLo {
		lo = "("
	}
	if math.IsInf(s.hi, 1) {
		hi = ")"
	}
	return lo + strconv.FormatFloat(s.lo, 'f', -1, 64) + ", " + strconv.FormatFloat(s.hi, 'f', -1, 64) + hi
}

// field is the knob whose JSON value decodes straight into one field
// of the run.
func field[T any](key, flag, usage string, at func(*Run) *T) knob {
	k := knob{key: key, flag: flag, usage: usage,
		set: func(r *Run, raw []byte) error { return decode(raw, at(r)) },
		get: func(r *Run) any { return *at(r) },
	}
	if _, ok := any(*new(T)).(bool); ok {
		k.on = "true"
	}
	return k
}

// number is the field of a number, which must lie in its range.
func number[T int | int64 | uint64 | float64](key, flag, usage string, in span, at func(*Run) *T) knob {
	k := field(key, flag, usage, at)
	k.in = &in
	return k
}

// shapeKeys counts the knobs system.Default takes: nodes and network,
// the first two.
const shapeKeys = 2

// knobs is the schema: one row per top-level key, in the order Build
// applies them.
var knobs = []knob{
	number("nodes", "nodes", "node count (a perfect square)", from(4, float64(workload.MaxNodes)), func(r *Run) *int { return &r.Nodes }),
	field("network", "net", "interconnect: "+strings.Join(system.Networks(), " | "), func(r *Run) *system.NetworkKind { return &r.Net }),
	field("app", "app", "application (see -listapps)", func(r *Run) *string { return &r.App }),
	number("scale", "scale", "workload scale factor", over(0, workload.MaxScale), func(r *Run) *float64 { return &r.Scale }),
	number("seed", "seed", "random seed", from(1, inf), func(r *Run) *uint64 { return &r.Seed }),
	number("meta_vcsels", "", "transmit VCSELs in the FSOI meta lane (Table 3)", from(1, core.MetaBits), func(r *Run) *int { return &r.FSOI.MetaVCSELs }),
	number("data_vcsels", "", "transmit VCSELs in the FSOI data lane (Table 3)", from(1, core.DataBits), func(r *Run) *int { return &r.FSOI.DataVCSELs }),
	number("receivers", "", "FSOI receivers per lane per node (Table 3)", from(1, core.MaxReceivers), func(r *Run) *int { return &r.FSOI.Receivers }),
	number("window_w", "", "FSOI backoff window W, slots (§4.3)", from(1, inf), func(r *Run) *float64 { return &r.FSOI.WindowW }),
	number("backoff_b", "", "FSOI backoff base B (§4.3)", from(1, inf), func(r *Run) *float64 { return &r.FSOI.BackoffB }),
	number("out_queue", "", "FSOI outgoing queue, packets", from(1, inf), func(r *Run) *int { return &r.FSOI.OutQueue }),
	number("max_backoff_slots", "", "cap on the FSOI backoff window, slots", over(core.LockstepBackoffSlots, core.MaxWaitSlots), func(r *Run) *float64 { return &r.FSOI.MaxBackoffSlots }),
	number("confirm_timeout_slots", "", "FSOI confirmation timeout, slots", from(1, core.MaxWaitSlots), func(r *Run) *int { return &r.FSOI.ConfirmTimeoutSlots }),
	{key: "optimizations", flag: "no-opt", usage: "disable all §5 FSOI optimizations", on: "{}",
		set: func(r *Run, raw []byte) error {
			var o OptSpec
			err := decode(raw, &o)
			r.FSOI.Opt = core.Optimizations(o)
			return err
		}},
	{key: "faults", usage: "physical-fault injection, FSOI only (FaultSpec)",
		set: func(r *Run, raw []byte) error {
			var f FaultSpec
			err := decode(raw, &f)
			if err == nil {
				r.Fault, err = f.Build()
			}
			return err
		}},
	{key: "adversaries", usage: "hostile nodes, FSOI only (AdversarySpec)",
		set: func(r *Run, raw []byte) error {
			var as []AdversarySpec
			if err := decode(raw, &as); err != nil {
				return err
			}
			for _, a := range as {
				sp, err := a.build()
				if err != nil {
					return err
				}
				r.Adversaries = append(r.Adversaries, sp)
			}
			return nil
		}},
	field("detect", "detect", "run the windowed contention detector and print its report (implies observation)", func(r *Run) *bool { return &r.Detect }),
	number("detect_window", "", "the detector's window, cycles", from(1, inf), func(r *Run) *int64 { return &r.DetectWindow }),
	number("memory_gbps", "membw", "total memory bandwidth, GB/s", over(0, inf), func(r *Run) *float64 { return &r.Memory.TotalGBps }),
	number("memory_channels", "", "memory controllers, each on its own node (8 above 16 nodes)", from(1, inf), func(r *Run) *int { return &r.Memory.Channels }),
	number("router_cycles", "", "mesh router pipeline depth, cycles", from(1, mesh.MaxRouterCycles), func(r *Run) *int { return &r.MeshRouterCycles }),
	number("mesh_bandwidth_frac", "", "mesh injection bandwidth, a fraction of full rate (Figure 11)", over(0, 1), func(r *Run) *float64 { return &r.MeshBandwidthFrac }),
	number("trace_packets", "trace", "dump the last N terminated packets", from(1, noc.MaxTraceEntries), func(r *Run) *int { return &r.TracePackets }),
}

// decode is the one decoder of a key's JSON value, from a spec or a
// flag: one value, no unknown field in a nested section.
func decode(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("more than one JSON value")
	}
	return err
}

// apply decodes raw, the knob's JSON value, into r.
func (k *knob) apply(r *Run, raw []byte) error {
	var v float64
	if k.in != nil && json.Unmarshal(raw, &v) == nil && !k.in.holds(v) {
		return fmt.Errorf("config: %s is %s; want %s", k.key, raw, k.in)
	}
	if err := k.set(r, raw); err != nil {
		return fmt.Errorf("config: %s: %w", k.key, err)
	}
	return nil
}

// Check checks v as Build checks the numeric key's value: the one rule
// for a quantity another command takes too (experiments -seed, -scale
// and resilience's -nodes, fsoitrace -window). v is written as JSON
// writes it, so an integer key decodes it and 1e300 stays short.
func Check(key string, v float64) error {
	for i := range knobs {
		if k := &knobs[i]; k.key == key && k.in != nil {
			raw, err := json.Marshal(v)
			if err != nil { // NaN or an infinity, which JSON cannot write
				return fmt.Errorf("config: %s is %v; want %s", key, v, k.in)
			}
			return k.apply(&Run{}, raw)
		}
	}
	return fmt.Errorf("config: no numeric key %q", key)
}

// Load reads a Spec from a JSON file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// Parse decodes a Spec from a JSON object, rejecting unknown keys so
// typos fail loudly. The result is never nil.
func Parse(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	rest := maps.Clone(s)
	for _, k := range knobs {
		delete(rest, k.key)
	}
	var unknown []string
	for key := range rest {
		unknown = append(unknown, key)
	}
	if slices.Sort(unknown); len(unknown) > 0 {
		return nil, fmt.Errorf("config: unknown field %q", unknown[0])
	}
	if s == nil {
		s = Spec{}
	}
	return s, nil
}

// Build decodes the spec into a validated run: nodes and network first,
// then system.Default for those two, then every other key written, in
// table order.
func (s Spec) Build() (Run, error) {
	r := Run{Config: system.Config{Nodes: 16, Net: system.NetFSOI}, App: "jacobi", Scale: 0.5}
	for i := range knobs {
		if i == shapeKeys {
			r.Config = system.Default(r.Nodes, r.Net)
		}
		if raw, ok := s[knobs[i].key]; ok {
			if err := knobs[i].apply(&r, raw); err != nil {
				return Run{}, err
			}
		}
	}
	if err := r.Validate(); err != nil {
		return Run{}, err
	}
	return r, nil
}

// Flags declares on fs the flag of every knob that has one and returns
// the spec the flags given fill, to lay over a spec file. A flag's text
// is its key's JSON value, a string's without its quotes; it is checked
// as the key is, so its error names the flag. Its default is what Build
// applies when the key is left out.
func Flags(fs *flag.FlagSet) Spec {
	given := Spec{}
	def, _ := Spec{}.Build() // the empty spec always builds (TestParseDefaults)
	for i := range knobs {
		k := &knobs[i]
		if k.flag == "" {
			continue
		}
		set := func(text string) error {
			raw := []byte(text)
			if k.on != "" {
				on, err := strconv.ParseBool(text)
				if err != nil || !on {
					delete(given, k.key)
					return err
				}
				raw = []byte(k.on)
			} else if k.in == nil {
				raw, _ = json.Marshal(text) // a string always marshals
			}
			err := k.apply(&Run{}, raw)
			if err == nil {
				given[k.key] = raw
			}
			return err
		}
		usage := k.usage
		if k.in != nil {
			usage += ", in " + k.in.String()
		}
		if k.get != nil && !reflect.ValueOf(k.get(&def)).IsZero() {
			usage += fmt.Sprintf(" (default %v)", k.get(&def))
		}
		if k.on != "" {
			fs.BoolFunc(k.flag, usage, set)
		} else {
			fs.Func(k.flag, usage, set)
		}
	}
	return given
}

// OptSpec toggles the §5 optimizations; left out, all are on (the paper
// default), and a section written names each one that stays on.
type OptSpec struct {
	AckElision          bool `json:"ack_elision"`
	BooleanSubscription bool `json:"boolean_subscription"`
	ReceiverScheduling  bool `json:"receiver_scheduling"`
	WritebackSplit      bool `json:"writeback_split"`
	RetransmitHints     bool `json:"retransmit_hints"`
}

// FaultSpec is the serializable view of fault.Config. Thermal droop is
// enabled by a positive droop coefficient; the remaining thermal fields
// then inherit paper-plausible defaults unless overridden.
type FaultSpec struct {
	MarginPenaltyDB float64 `json:"margin_penalty_db,omitempty"`
	VCSELFailProb   float64 `json:"vcsel_fail_prob,omitempty"`
	ConfirmDropProb float64 `json:"confirm_drop_prob,omitempty"`
	// ThermalCooling: "air", "microchannel" or "diamond-spreader".
	ThermalCooling   string  `json:"thermal_cooling,omitempty"`
	ThermalPowerW    float64 `json:"thermal_power_w,omitempty"`
	ThermalTauCycles float64 `json:"thermal_tau_cycles,omitempty"`
	DroopDBPerK      float64 `json:"droop_db_per_k,omitempty"`
}

// AdversarySpec is the serializable view of adversary.Spec: one hostile
// node, its role, victim set, attack intensity in (0,1), and optional
// activity window / operation budget.
type AdversarySpec struct {
	Role      string  `json:"role"` // jammer | spoofer | starver
	Node      int     `json:"node"`
	Victims   []int   `json:"victims"`
	Intensity float64 `json:"intensity"`
	Start     int64   `json:"start,omitempty"`
	Stop      int64   `json:"stop,omitempty"`
	Ops       int     `json:"ops,omitempty"`
}

// build converts the spec into an adversary.Spec.
func (a AdversarySpec) build() (adversary.Spec, error) {
	role, ok := adversary.ParseRole(a.Role)
	if !ok {
		return adversary.Spec{}, fmt.Errorf("unknown adversary role %q", a.Role)
	}
	return adversary.Spec{
		Role:      role,
		Node:      a.Node,
		Victims:   a.Victims,
		Intensity: a.Intensity,
		Start:     sim.Cycle(a.Start),
		Stop:      sim.Cycle(a.Stop),
		Ops:       a.Ops,
	}, nil
}

// coolings maps spec names to thermal technologies.
var coolings = map[string]thermal.Cooling{
	"air": thermal.AirCooled, "microchannel": thermal.Microchannel,
	"diamond-spreader": thermal.DiamondSpreader,
}

// Build converts the spec into a validated fault configuration. It is
// the one route from user-facing fault knobs (this JSON section, the
// `experiments -run faults` flags) to fault.Config.
func (f FaultSpec) Build() (fault.Config, error) {
	cfg := fault.Config{
		MarginPenaltyDB: f.MarginPenaltyDB,
		VCSELFailProb:   f.VCSELFailProb,
		ConfirmDropProb: f.ConfirmDropProb,
	}
	if f.DroopDBPerK > 0 {
		cooling := thermal.AirCooled
		if f.ThermalCooling != "" {
			c, ok := coolings[f.ThermalCooling]
			if !ok {
				return fault.Config{}, fmt.Errorf("unknown cooling %q", f.ThermalCooling)
			}
			cooling = c
		}
		cfg.Thermal = fault.ThermalSpec{
			Enabled:       true,
			Cooling:       cooling,
			PowerPerNodeW: f.ThermalPowerW,
			TauCycles:     f.ThermalTauCycles,
			DroopDBPerK:   f.DroopDBPerK,
		}
		if isUnset(cfg.Thermal.PowerPerNodeW) {
			cfg.Thermal.PowerPerNodeW = 4 // §3.3 evaluates ~4 W/node
		}
		if isUnset(cfg.Thermal.TauCycles) {
			cfg.Thermal.TauCycles = 100000 // package thermal time constant
		}
	} else if f.ThermalCooling != "" || !isUnset(f.ThermalPowerW) || !isUnset(f.ThermalTauCycles) {
		return fault.Config{}, errors.New("thermal fields need droop_db_per_k > 0")
	}
	if err := cfg.Validate(); err != nil {
		return fault.Config{}, err
	}
	return cfg, nil
}

// isUnset reports whether a float spec field was left out: such values
// are assigned from the spec, never computed, so zero is exact.
func isUnset(v float64) bool {
	return v == 0 //lint:allow floateq unset-field sentinel: spec values are assigned, never computed
}
