package system

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestCanonicalKeys pins the key names of a 16-node FSOI canonical
// listing, so a change that adds or removes a metric shows here by name
// rather than only as a moved hash in the goldens.
func TestCanonicalKeys(t *testing.T) {
	want := []string{
		"app", "cycles", "energy.corecache", "energy.leakage", "energy.network", "finished",
		"fsoi.bit_errors", "fsoi.confirm.bits", "fsoi.confirm.signals", "fsoi.confirm_drops",
		"fsoi.degraded_transmissions", "fsoi.duplicate_deliveries", "fsoi.header_corruptions",
		"fsoi.hints.correct", "fsoi.hints.issued", "fsoi.hints.wrong",
		"fsoi.kind0", "fsoi.kind1", "fsoi.kind2", "fsoi.kind3",
		"fsoi.lane0.attempts", "fsoi.lane0.collided", "fsoi.lane0.collisions", "fsoi.lane0.delivered",
		"fsoi.lane0.max_backoff_depth", "fsoi.lane0.slots",
		"fsoi.lane1.attempts", "fsoi.lane1.collided", "fsoi.lane1.collisions", "fsoi.lane1.delivered",
		"fsoi.lane1.max_backoff_depth", "fsoi.lane1.slots",
		"fsoi.payload_crc_errors", "fsoi.scheduled_holds", "fsoi.spoofed_headers",
		"fsoi.starved_confirms", "fsoi.timeout_retransmits",
		"latency.attempts", "latency.collisions", "latency.delivered", "latency.network",
		"latency.queuing", "latency.resolution", "latency.scheduling", "latency.total",
		"latency.type.data", "latency.type.meta",
		"net", "nodes", "power.avg_w",
		"protocol.elided_acks", "protocol.invalidations", "protocol.nacks", "protocol.sync_stall",
		"replyhist.overflow", "replyhist.total", "traffic.data", "traffic.meta",
	}
	for i := 0; i < 60; i++ {
		want = append(want, fmt.Sprintf("replyhist.bucket%d", i))
	}
	slices.Sort(want)

	m := runTiny(t, "jacobi", NetFSOI, 16, nil)
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(m.Canonical(), "\n"), "\n") {
		key, _, _ := strings.Cut(line, " ")
		got = append(got, key)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("canonical keys changed:\n got %q\nwant %q", got, want)
	}
}
