package system

import (
	"testing"

	"fsoi/internal/fault"
)

// faultyConfig enables every fault model at once.
func faultyConfig(c *Config) {
	c.Fault = fault.Config{
		MarginPenaltyDB: 2.5,
		VCSELFailProb:   0.05,
		ConfirmDropProb: 0.05,
	}
}

func TestZeroFaultConfigIsBitIdentical(t *testing.T) {
	// The pay-for-what-you-use guarantee: a zero Fault section changes
	// nothing — not even RNG stream genealogy — versus the default run.
	plain := runTiny(t, "jacobi", NetFSOI, 16, nil)
	zeroed := runTiny(t, "jacobi", NetFSOI, 16, func(c *Config) { c.Fault = fault.Config{} })
	if plain.Cycles != zeroed.Cycles ||
		plain.MetaPackets != zeroed.MetaPackets ||
		plain.DataPackets != zeroed.DataPackets ||
		plain.FSOI.Collisions[0] != zeroed.FSOI.Collisions[0] ||
		plain.FSOI.Collisions[1] != zeroed.FSOI.Collisions[1] {
		t.Fatalf("zero fault config perturbed the run: %d vs %d cycles", plain.Cycles, zeroed.Cycles)
	}
	if zeroed.FaultCounters != nil {
		t.Fatal("no injector means no fault counters")
	}
}

func TestConfirmDropsDoNotWedgeSystem(t *testing.T) {
	m := runTiny(t, "fft", NetFSOI, 16, func(c *Config) {
		c.Fault = fault.Config{ConfirmDropProb: 0.15}
	})
	// runTiny already asserts m.Finished; the recovery path must also
	// have been exercised and every timeout retransmission deduplicated.
	if m.FaultCounters.Get("confirm_drops") == 0 {
		t.Fatal("15% drop probability produced no drops")
	}
	if m.FaultCounters.Get("timeout_retransmits") != m.FaultCounters.Get("confirm_drops") {
		t.Fatalf("every drop must trigger a timeout retransmission: %d drops, %d timeouts",
			m.FaultCounters.Get("confirm_drops"), m.FaultCounters.Get("timeout_retransmits"))
	}
}

func TestMarginPenaltyDegradesPerformance(t *testing.T) {
	clean := runTiny(t, "jacobi", NetFSOI, 16, nil)
	faulty := runTiny(t, "jacobi", NetFSOI, 16, func(c *Config) {
		c.Fault = fault.Config{MarginPenaltyDB: 3.5}
	})
	if faulty.Cycles <= clean.Cycles {
		t.Fatalf("3.5 dB of lost margin should cost cycles: %d vs %d", faulty.Cycles, clean.Cycles)
	}
	if faulty.FSOI.PayloadCRCErrors == 0 {
		t.Fatal("heavy corruption must trip the modelled CRC")
	}
}
