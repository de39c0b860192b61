package system

import (
	"fmt"
	"strconv"
	"strings"

	"fsoi/internal/noc"
	"fsoi/internal/stats"
)

// Canonical serializes every metric a run produces into one line per
// value, in a fixed order, with floats rendered in shortest
// round-trip form (distinct bit patterns always yield distinct
// strings). Two runs of the same configuration and seed must produce
// byte-identical canonical forms — that is the repository's core
// determinism claim, and the cross-run regression test enforces it by
// comparing exactly this string.
func (m Metrics) Canonical() string {
	var b strings.Builder
	put := func(key string, val any) {
		switch v := val.(type) {
		case float64:
			fmt.Fprintf(&b, "%s %s\n", key, strconv.FormatFloat(v, 'g', -1, 64))
		default:
			fmt.Fprintf(&b, "%s %v\n", key, val)
		}
	}
	put("app", m.App)
	put("net", m.Net)
	put("nodes", m.Nodes)
	put("cycles", int64(m.Cycles))
	put("finished", m.Finished)

	if m.Latency != nil {
		putSummary(&b, "latency.queuing", &m.Latency.Queuing)
		putSummary(&b, "latency.scheduling", &m.Latency.Scheduling)
		putSummary(&b, "latency.network", &m.Latency.Network)
		putSummary(&b, "latency.resolution", &m.Latency.Resolution)
		putSummary(&b, "latency.total", &m.Latency.Total)
		for i := range m.Latency.ByType {
			putSummary(&b, fmt.Sprintf("latency.type.%s", noc.PacketType(i)), &m.Latency.ByType[i])
		}
		put("latency.delivered", m.Latency.Delivered)
		put("latency.collisions", m.Latency.Collisions)
		put("latency.attempts", m.Latency.Attempts)
	}

	if m.FSOI != nil {
		for l := 0; l < len(m.FSOI.Attempts); l++ {
			put(fmt.Sprintf("fsoi.lane%d.attempts", l), m.FSOI.Attempts[l])
			put(fmt.Sprintf("fsoi.lane%d.collided", l), m.FSOI.Collided[l])
			put(fmt.Sprintf("fsoi.lane%d.collisions", l), m.FSOI.Collisions[l])
			put(fmt.Sprintf("fsoi.lane%d.delivered", l), m.FSOI.Delivered[l])
			put(fmt.Sprintf("fsoi.lane%d.slots", l), m.FSOI.SlotsObserved[l])
		}
		for k := 0; k < len(m.FSOI.DataByKind); k++ {
			put(fmt.Sprintf("fsoi.kind%d", k), m.FSOI.DataByKind[k])
		}
		put("fsoi.hints.issued", m.FSOI.HintsIssued)
		put("fsoi.hints.correct", m.FSOI.HintsCorrect)
		put("fsoi.hints.wrong", m.FSOI.HintsWrong)
		put("fsoi.confirm.bits", m.FSOI.ConfirmBits)
		put("fsoi.confirm.signals", m.FSOI.ConfirmSignals)
		put("fsoi.bit_errors", m.FSOI.BitErrors)
		put("fsoi.scheduled_holds", m.FSOI.ScheduledHolds)
		put("fsoi.header_corruptions", m.FSOI.HeaderCorruptions)
		put("fsoi.payload_crc_errors", m.FSOI.PayloadCRCErrors)
		put("fsoi.confirm_drops", m.FSOI.ConfirmDrops)
		put("fsoi.timeout_retransmits", m.FSOI.TimeoutRetransmits)
		put("fsoi.duplicate_deliveries", m.FSOI.DuplicateDeliveries)
		put("fsoi.degraded_transmissions", m.FSOI.DegradedTransmissions)
		put("fsoi.spoofed_headers", m.FSOI.SpoofedHeaders)
		put("fsoi.starved_confirms", m.FSOI.StarvedConfirms)
		for l := 0; l < len(m.FSOI.MaxBackoffDepth); l++ {
			put(fmt.Sprintf("fsoi.lane%d.max_backoff_depth", l), m.FSOI.MaxBackoffDepth[l])
		}
	}

	if m.AdversaryNodes > 0 {
		put("adversary.nodes", m.AdversaryNodes)
		put("adversary.honest_finish", int64(m.HonestFinish))
	}
	if m.Detection != nil {
		for _, line := range m.Detection.CanonicalLines() {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}

	put("energy.network", float64(m.Energy.Network))
	put("energy.corecache", float64(m.Energy.CoreCache))
	put("energy.leakage", float64(m.Energy.Leakage))
	put("power.avg_w", float64(m.AvgPowerW))

	put("traffic.meta", m.MetaPackets)
	put("traffic.data", m.DataPackets)
	put("protocol.invalidations", m.Invalidations)
	put("protocol.elided_acks", m.ElidedAcks)
	put("protocol.nacks", m.Nacks)
	put("protocol.sync_stall", m.SyncStall)

	if m.FaultCounters != nil {
		for _, name := range m.FaultCounters.Names() {
			put("fault."+name, m.FaultCounters.Get(name))
		}
	}
	if m.ReplyHist != nil {
		for i := 0; i < m.ReplyHist.NumBuckets(); i++ {
			put(fmt.Sprintf("replyhist.bucket%d", i), m.ReplyHist.Bucket(i))
		}
		put("replyhist.overflow", m.ReplyHist.Overflow())
		put("replyhist.total", m.ReplyHist.Total())
	}
	return b.String()
}

// putSummary emits one summary's five independent moments.
func putSummary(b *strings.Builder, key string, s *stats.Summary) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(b, "%s n=%d sum=%s min=%s max=%s stddev=%s\n",
		key, s.N(), f(s.Sum()), f(s.Min()), f(s.Max()), f(s.StdDev()))
}
