package core_test

import (
	"strings"
	"testing"

	"fsoi/internal/config"
	"fsoi/internal/core"
	"fsoi/internal/sim"
)

// TestConfigValidate: a configuration's range is its spec key's row, so
// the cases core.Config.Validate used to refuse are refused by Build,
// each in one line naming its key. PaperConfig builds, and New keeps
// only the bounds of its own structure: a 64-bit arrival mask and a
// backoff cap above one slot.
func TestConfigValidate(t *testing.T) {
	core.New(core.PaperConfig(16), sim.NewEngine(), sim.NewRNG(1))
	for _, key := range []string{`"nodes": 1`, `"meta_vcsels": 0`, `"window_w": 0.5`, `"backoff_b": 0.9`,
		`"out_queue": 0`, `"receivers": 65`, `"max_backoff_slots": 1`} {
		spec, err := config.Parse([]byte("{" + key + "}"))
		if err != nil {
			t.Fatal(err)
		}
		name, _, _ := strings.Cut(key, ":")
		if _, err := spec.Build(); err == nil || !strings.HasPrefix(err.Error(), "config: "+strings.Trim(name, `"`)+" is ") {
			t.Errorf("{%s}: Build() = %v, want one line naming the key", key, err)
		}
	}
	for _, c := range []struct {
		receivers int
		cap       float64
		delay     int
		ok        bool
	}{
		{core.MaxReceivers, 256, 2, true},
		{core.MaxReceivers + 1, 256, 2, false},
		{2, core.LockstepBackoffSlots, 2, false},
		{2, 256, 0, false}, // the confirmation must take a cycle
	} {
		cfg := core.PaperConfig(16)
		cfg.Receivers, cfg.MaxBackoffSlots, cfg.ConfirmDelay = c.receivers, c.cap, c.delay
		func() {
			defer func() {
				if r := recover(); (r == nil) != c.ok {
					t.Errorf("%d receivers, cap %v, delay %d: New panicked with %v", c.receivers, c.cap, c.delay, r)
				}
			}()
			core.New(cfg, sim.NewEngine(), sim.NewRNG(1))
		}()
	}
}
