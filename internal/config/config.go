// Package config provides the JSON configuration surface of the
// simulator: a flat, documented schema that deserializes into a
// system.Config, so parameter studies can be scripted without
// recompiling (fsoisim -config study.json).
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"

	"fsoi/internal/adversary"
	"fsoi/internal/core"
	"fsoi/internal/fault"
	"fsoi/internal/sim"
	"fsoi/internal/system"
	"fsoi/internal/thermal"
)

// Spec is the serializable view of a simulation configuration. Zero
// fields inherit the paper defaults for the chosen node count and
// network, so a spec needs to mention only what it changes.
type Spec struct {
	Nodes   int     `json:"nodes"`           // 16 or 64
	Network string  `json:"network"`         // any system.Networks() name
	App     string  `json:"app,omitempty"`   // workload name
	Scale   float64 `json:"scale,omitempty"` // workload scale factor
	Seed    uint64  `json:"seed,omitempty"`

	// FSOI knobs (ignored on other networks).
	MetaVCSELs          int      `json:"meta_vcsels,omitempty"`
	DataVCSELs          int      `json:"data_vcsels,omitempty"`
	Receivers           int      `json:"receivers,omitempty"`
	WindowW             float64  `json:"window_w,omitempty"`
	BackoffB            float64  `json:"backoff_b,omitempty"`
	OutQueue            int      `json:"out_queue,omitempty"`
	MaxBackoffSlots     float64  `json:"max_backoff_slots,omitempty"`
	ConfirmTimeoutSlots int      `json:"confirm_timeout_slots,omitempty"`
	Optimizations       *OptSpec `json:"optimizations,omitempty"`

	// Faults switches on physical-fault injection (FSOI only); nil
	// injects nothing and keeps runs bit-identical to fault-free builds.
	Faults *FaultSpec `json:"faults,omitempty"`

	// Adversaries assigns hostile workload streams to nodes (FSOI only);
	// an empty list keeps runs bit-identical to adversary-free builds.
	Adversaries []AdversarySpec `json:"adversaries,omitempty"`

	// Detect switches on the windowed contention detector (implies
	// observation); DetectWindow overrides its window length in cycles.
	Detect       bool  `json:"detect,omitempty"`
	DetectWindow int64 `json:"detect_window,omitempty"`

	// Memory system.
	MemoryGBps float64 `json:"memory_gbps,omitempty"`
	Channels   int     `json:"memory_channels,omitempty"`

	// Mesh.
	RouterCycles      int     `json:"router_cycles,omitempty"`
	MeshBandwidthFrac float64 `json:"mesh_bandwidth_frac,omitempty"`

	// Diagnostics.
	TracePackets int `json:"trace_packets,omitempty"`
}

// OptSpec toggles the §5 optimizations; nil means all on (the paper
// default), a present struct specifies each explicitly.
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
		return adversary.Spec{}, fmt.Errorf("config: unknown adversary role %q", a.Role)
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
				return fault.Config{}, fmt.Errorf("config: unknown cooling %q", f.ThermalCooling)
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
		return fault.Config{}, fmt.Errorf("config: thermal fields need droop_db_per_k > 0")
	}
	if err := cfg.Validate(); err != nil {
		return fault.Config{}, err
	}
	return cfg, nil
}

// Load reads a Spec from a JSON file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// Parse decodes a Spec from JSON bytes, rejecting unknown fields so
// typos fail loudly.
func Parse(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("config: %w", err)
	}
	return s, nil
}

// checkSigns rejects a negative (or NaN) number in any top-level field,
// naming its JSON key: zero means "default" throughout the spec, and a
// negative value used to run the default without a word.
func (s Spec) checkSigns() error {
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		ok := true
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			ok = f.Int() >= 0
		case reflect.Float64:
			ok = f.Float() >= 0
		}
		if !ok {
			key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			return fmt.Errorf("config: %s is %v; want a number >= 0 (0 = default)", key, f)
		}
	}
	return nil
}

// Build converts the spec into a runnable system configuration.
func (s Spec) Build() (system.Config, error) {
	if err := s.checkSigns(); err != nil {
		return system.Config{}, err
	}
	nodes := s.Nodes
	if nodes == 0 {
		nodes = 16
	}
	netName := s.Network
	if netName == "" {
		netName = "fsoi"
	}
	kind, err := system.ParseNetwork(netName)
	if err != nil {
		return system.Config{}, fmt.Errorf("config: %w", err)
	}
	cfg := system.Default(nodes, kind)
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.MetaVCSELs > 0 {
		cfg.FSOI.MetaVCSELs = s.MetaVCSELs
	}
	if s.DataVCSELs > 0 {
		cfg.FSOI.DataVCSELs = s.DataVCSELs
	}
	if s.Receivers > 0 {
		cfg.FSOI.Receivers = s.Receivers
	}
	if s.WindowW > 0 {
		cfg.FSOI.WindowW = s.WindowW
	}
	if s.BackoffB > 0 {
		cfg.FSOI.BackoffB = s.BackoffB
	}
	if s.OutQueue > 0 {
		cfg.FSOI.OutQueue = s.OutQueue
	}
	if s.MaxBackoffSlots > 0 {
		cfg.FSOI.MaxBackoffSlots = s.MaxBackoffSlots
	}
	if s.ConfirmTimeoutSlots > 0 {
		cfg.FSOI.ConfirmTimeoutSlots = s.ConfirmTimeoutSlots
	}
	if s.Faults != nil {
		fc, err := s.Faults.Build()
		if err != nil {
			return system.Config{}, err
		}
		cfg.Fault = fc
	}
	for _, a := range s.Adversaries {
		sp, err := a.build()
		if err != nil {
			return system.Config{}, err
		}
		cfg.Adversaries = append(cfg.Adversaries, sp)
	}
	if s.Detect {
		cfg.Detect = true
	}
	if s.DetectWindow > 0 {
		cfg.DetectWindow = s.DetectWindow
	}
	if s.Optimizations != nil {
		o := s.Optimizations
		cfg.FSOI.Opt = core.Optimizations{
			AckElision:          o.AckElision,
			BooleanSubscription: o.BooleanSubscription,
			ReceiverScheduling:  o.ReceiverScheduling,
			WritebackSplit:      o.WritebackSplit,
			RetransmitHints:     o.RetransmitHints,
		}
	}
	if s.MemoryGBps > 0 {
		cfg.Memory.TotalGBps = s.MemoryGBps
	}
	if s.Channels > 0 {
		cfg.Memory.Channels = s.Channels
	}
	// Zero is "unset" for both, which is what Default leaves; anything
	// out of range goes through for Validate below to name.
	cfg.MeshBandwidthFrac = s.MeshBandwidthFrac
	cfg.MeshRouterCycles = s.RouterCycles
	if s.TracePackets > 0 {
		cfg.TracePackets = s.TracePackets
	}
	if err := cfg.FSOI.Validate(); kind == system.NetFSOI && err != nil {
		return system.Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return system.Config{}, err
	}
	return cfg, nil
}

// AppAndScale returns the workload selection with defaults applied; a
// negative scale is Build's error.
func (s Spec) AppAndScale() (string, float64) {
	app := s.App
	if app == "" {
		app = "jacobi"
	}
	scale := s.Scale
	if isUnset(scale) {
		scale = 0.5
	}
	return app, scale
}

// isUnset reports whether a float spec field was left out: such values
// are assigned from the spec, never computed, so zero is exact.
func isUnset(v float64) bool {
	return v == 0 //lint:allow floateq unset-field sentinel: spec values are assigned, never computed
}
