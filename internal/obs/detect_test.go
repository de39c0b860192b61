package obs

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"fsoi/internal/sim"
)

// ev builds one lifecycle event on the src->dst link.
func ev(kind Kind, at int64, src, dst, attempt int) Event {
	return Event{At: sim.Cycle(at), Kind: kind, Src: int32(src), Dst: int32(dst), Attempt: int32(attempt)}
}

// honestBackground emits a light, even load on n links into dst so the
// percentile baselines have an honest population to calibrate against:
// each link attempts a handful of transmissions per window.
func honestBackground(n int, from, until int64) []Event {
	var out []Event
	for at := from; at < until; at += 256 {
		for s := 0; s < n; s++ {
			out = append(out, ev(KindTxStart, at+int64(s), s+1, 0, 0))
		}
	}
	return out
}

// burst emits count attempt+collision pairs on src->dst packed into a
// single detector window starting at from.
func burst(src, dst int, from int64, count int) []Event {
	var out []Event
	for i := 0; i < count; i++ {
		at := from + int64(i)
		out = append(out, ev(KindTxStart, at, src, dst, 0))
		out = append(out, ev(KindCollision, at, src, dst, 0))
	}
	return out
}

func TestDetectEmptyAndCleanRuns(t *testing.T) {
	if r := Detect(nil, DetectorConfig{}); len(r.Flagged) != 0 {
		t.Fatalf("empty event stream flagged %d links", len(r.Flagged))
	}
	r := Detect(honestBackground(8, 0, 1<<16), DetectorConfig{})
	if len(r.Flagged) != 0 {
		t.Fatalf("uniform honest traffic flagged %d links: %+v", len(r.Flagged), r.Flagged)
	}
	if r.Links != 8 {
		t.Fatalf("want 8 profiled links, got %d", r.Links)
	}
}

func TestDetectWarmupExclusion(t *testing.T) {
	// A violent burst confined to the warm-up windows (the cold-start
	// transient) must be invisible; the identical burst after warm-up
	// must be flagged.
	cfg := DetectorConfig{WindowCycles: 2048, WarmupWindows: 2}
	base := honestBackground(8, 0, 1<<16)

	cold := append(append([]Event(nil), burst(15, 0, 100, 400)...), base...)
	sortEvents(cold)
	if r := Detect(cold, cfg); len(r.Flagged) != 0 {
		t.Fatalf("burst inside warm-up flagged %d links", len(r.Flagged))
	}

	hot := append(append([]Event(nil), burst(15, 0, 3*2048+100, 400)...), base...)
	sortEvents(hot)
	r := Detect(hot, cfg)
	if len(r.Flagged) != 1 || r.Flagged[0].Src != 15 || r.Flagged[0].Dst != 0 {
		t.Fatalf("post-warm-up burst not pinned to 15->0: %+v", r.Flagged)
	}
	if !strings.Contains(r.Flagged[0].Reason, "flood") {
		t.Fatalf("volume burst must trip the flood rule, got %q", r.Flagged[0].Reason)
	}
	if at := r.Flagged[0].FlaggedAt; at < 3*2048 || at >= 4*2048 {
		t.Fatalf("flagged-at %d outside the burst window", at)
	}
}

func TestDetectVolumeGateShieldsBystanders(t *testing.T) {
	// A link suffering many collisions while transmitting at an honest
	// rate is a victim of congestion, not its cause: without anomalous
	// volume the rate and depth rules must stay quiet.
	var events []Event
	events = append(events, honestBackground(8, 0, 1<<16)...)
	for at := int64(3 * 2048); at < 4*2048; at += 16 {
		events = append(events, ev(KindCollision, at, 2, 0, 0))
		events = append(events, ev(KindBackoff, at, 2, 0, 20))
	}
	sortEvents(events)
	if r := Detect(events, DetectorConfig{WindowCycles: 2048}); len(r.Flagged) != 0 {
		t.Fatalf("low-volume victim link flagged: %+v", r.Flagged)
	}
}

func TestDetectDepthRule(t *testing.T) {
	// Anomalous volume + deep backoff + collisions, but spread thin
	// enough that no single window crosses the rate threshold.
	var events []Event
	events = append(events, honestBackground(8, 0, 1<<16)...)
	for at := int64(3 * 2048); at < 8*2048; at += 8 {
		events = append(events, ev(KindTxStart, at, 15, 0, 0))
		if at%64 == 0 {
			events = append(events, ev(KindCollision, at, 15, 0, 0))
			events = append(events, ev(KindBackoff, at, 15, 0, 20))
		}
	}
	sortEvents(events)
	r := Detect(events, DetectorConfig{WindowCycles: 2048, FloodFactor: 1000, MinFloodAttempts: 1 << 30})
	if len(r.Flagged) != 1 || !strings.Contains(r.Flagged[0].Reason, "depth") {
		t.Fatalf("deep-backoff busy link not flagged by the depth rule: %+v", r.Flagged)
	}
}

func TestDetectConfirmRuleBaselineOverZeros(t *testing.T) {
	// Only the victim's inbound links lose confirmations. The baseline
	// quantile runs over every active link, zeros included, so the
	// attack cannot inflate its own threshold out of reach.
	var events []Event
	events = append(events, honestBackground(8, 0, 1<<16)...)
	for at := int64(3 * 2048); at < 6*2048; at += 32 {
		events = append(events, ev(KindConfirmDrop, at, 3, 0, 0))
	}
	sortEvents(events)
	r := Detect(events, DetectorConfig{WindowCycles: 2048})
	if len(r.Flagged) != 1 || !strings.Contains(r.Flagged[0].Reason, "confirm") {
		t.Fatalf("confirmation-loss pile-up not flagged: %+v", r.Flagged)
	}
	if r.ConfirmBaseline != 0 {
		t.Fatalf("confirm baseline %d should be 0: most links lose nothing", r.ConfirmBaseline)
	}
}

func TestDetectDeterministicReport(t *testing.T) {
	var events []Event
	events = append(events, honestBackground(8, 0, 1<<16)...)
	events = append(events, burst(15, 0, 3*2048, 400)...)
	sortEvents(events)
	a := strings.Join(Detect(events, DetectorConfig{}).CanonicalLines(), "\n")
	b := strings.Join(Detect(events, DetectorConfig{}).CanonicalLines(), "\n")
	if a != b {
		t.Fatal("identical event streams produced different canonical reports")
	}
	if !strings.Contains(a, "detection.flag 15->0") {
		t.Fatalf("canonical report missing the flagged link:\n%s", a)
	}
}

func TestQuantileIntNearestRank(t *testing.T) {
	cases := []struct {
		vs   []int64
		q    float64
		want int64
	}{
		{nil, 0.75, 0},
		{[]int64{5}, 0.75, 5},
		{[]int64{1, 2, 3, 4}, 0.75, 3},
		{[]int64{4, 3, 2, 1}, 0.75, 3}, // order-independent
		{[]int64{1, 2, 3, 4}, 0.5, 2},
		{[]int64{1, 2, 3, 4}, 0.01, 1},
		{[]int64{1, 2, 3, 4}, 0.99, 4},
	}
	for _, c := range cases {
		if got := quantileInt(c.vs, c.q); got != c.want {
			t.Errorf("quantileInt(%v, %g) = %d, want %d", c.vs, c.q, got, c.want)
		}
	}
}

// sortEvents re-establishes the non-decreasing At order Detect requires.
func sortEvents(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
}

// recordFired records events in the order an engine fires them: sorted by
// cycle, ties in the order given.
func recordFired(events []Event) *Recorder {
	sortEvents(events)
	rec := NewRecorder(0)
	for _, e := range events {
		rec.Emit(e)
	}
	return rec
}

// TestTableExplainsEachRuleThatFired: below the flagged links, Table says
// of every rule that flagged one what the link reached, the threshold it
// met, the factor and baseline quantile (or the floor, or the fixed
// limit) that threshold came from, and the margin; a clean report has no
// such section, and the canonical lines carry none of it.
func TestTableExplainsEachRuleThatFired(t *testing.T) {
	var script []byte
	for _, rule := range detectRules {
		script = append(script, flaggingScript(rule)...)
	}
	r := recordFired(scriptEvents(8, script, false)).Detect(tightDetector)
	_, why, found := strings.Cut(r.Table(), "\nwhy (")
	if !found {
		t.Fatalf("no explanation below the flagged links:\n%s", r.Table())
	}
	var rows []string
	for _, line := range strings.Split(why, "\n") {
		if strings.HasPrefix(line, "1->0") {
			rows = append(rows, strings.Join(strings.Fields(line), " "))
		}
	}
	want := []string{
		"1->0 flood peak-att 8 6 6x p75=1 +2 (1.33x)",
		"1->0 rate peak-coll 4 4 4x p75=1 +0 (1.00x)",
		"1->0 depth max-backoff 5 5 fixed +0 (1.00x)",
		"1->0 confirm confirm-drops 3 3 floor, above 4x p75=0 +0 (1.00x)",
	}
	if !slices.Equal(rows, want) {
		t.Fatalf("explanation rows:\n%s\nwant:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
	for _, line := range r.CanonicalLines() {
		if strings.Contains(line, "p75") || strings.Contains(line, "why") {
			t.Fatalf("the explanation leaked into the canonical surface: %q", line)
		}
	}
	if clean := Detect(nil, tightDetector).Table(); strings.Contains(clean, "why") || !strings.HasSuffix(clean, "no anomalous links\n") {
		t.Fatalf("a report that flags nothing explains nothing:\n%s", clean)
	}
}
