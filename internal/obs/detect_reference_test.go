package obs

// Detect as it stood before the slab and table replaced its two Go maps
// (map[Link]*linkAcc, reasons as a []string, a second map for the
// flagged-at scan), kept word for word as the reference the differential
// tests below hold the new one to.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"fsoi/internal/sim"
)

// refLinkAcc is the accumulator refDetect keeps per link, in a Go map.
type refLinkAcc struct {
	att       int64
	attWindow int64
	attIn     int64
	attPeak   int64
	coll      int64
	window    int64 // window index currently being counted
	inWindow  int64 // collisions in that window
	peak      int64
	depth     int64
	confirms  int64
	flaggedAt int64
	reasons   []string
}

// noteAttempt folds one transmission attempt into the windows.
func (a *refLinkAcc) noteAttempt(at, windowCycles int64) {
	a.att++
	if w := at / windowCycles; w != a.attWindow {
		a.attWindow, a.attIn = w, 0
	}
	a.attIn++
	if a.attIn > a.attPeak {
		a.attPeak = a.attIn
	}
}

// noteCollision folds one collision event into the windows.
func (a *refLinkAcc) noteCollision(at, windowCycles int64) {
	a.coll++
	if w := at / windowCycles; w != a.window {
		a.window, a.inWindow = w, 0
	}
	a.inWindow++
	if a.inWindow > a.peak {
		a.peak = a.inWindow
	}
}

// refDetect is Detect as it stood before PR 22.
func refDetect(events []Event, cfg DetectorConfig) *Report {
	cfg = cfg.withDefaults()
	acc := make(map[Link]*refLinkAcc)
	at := func(e Event) (*refLinkAcc, bool) {
		if e.Src < 0 || e.Dst < 0 {
			return nil, false
		}
		k := Link{Src: int(e.Src), Dst: int(e.Dst)}
		a := acc[k]
		if a == nil {
			a = &refLinkAcc{attWindow: -1, window: -1, flaggedAt: -1}
			acc[k] = a
		}
		return a, true
	}
	warmCycles := cfg.WarmupWindows * cfg.WindowCycles
	var lastAt int64
	for _, e := range events {
		if v := int64(e.At); v > lastAt {
			lastAt = v
		}
		if int64(e.At) < warmCycles {
			continue
		}
		switch e.Kind {
		case KindTxStart, KindRetransmit:
			if a, ok := at(e); ok {
				a.noteAttempt(int64(e.At), cfg.WindowCycles)
			}
		case KindCollision:
			if a, ok := at(e); ok {
				a.noteCollision(int64(e.At), cfg.WindowCycles)
			}
		case KindBackoff:
			a, ok := at(e)
			if !ok {
				continue
			}
			if d := int64(e.Attempt); d > a.depth {
				a.depth = d
			}
		case KindConfirmDrop:
			if a, ok := at(e); ok {
				a.confirms++
			}
		}
	}

	keys := make([]Link, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})

	// Percentile-derived baselines over the per-link distributions.
	var attPeaks, peaks, confirms []int64
	for _, k := range keys {
		a := acc[k]
		if a.att > 0 {
			attPeaks = append(attPeaks, a.attPeak)
		}
		if a.coll > 0 {
			peaks = append(peaks, a.peak)
		}
		// Confirm losses baseline over every active link, zeros included:
		// a healthy link loses nothing, so when only the victim's links
		// pile up drops the quantile stays at the honest level instead of
		// being dragged up by the attack itself. Uniform physical-fault
		// drops (fault.Config.ConfirmDropProb) still lift it everywhere.
		confirms = append(confirms, a.confirms)
	}
	r := &Report{
		Cfg:             cfg,
		Windows:         lastAt/cfg.WindowCycles + 1,
		VolumeBaseline:  refQuantileInt(attPeaks, cfg.Quantile),
		RateBaseline:    refQuantileInt(peaks, cfg.Quantile),
		ConfirmBaseline: refQuantileInt(confirms, cfg.Quantile),
	}
	r.FloodThreshold = maxInt64(cfg.MinFloodAttempts,
		int64(math.Ceil(cfg.FloodFactor*float64(r.VolumeBaseline))))
	r.VolumeThreshold = maxInt64(cfg.MinVolumeAttempts,
		int64(math.Ceil(cfg.VolumeFactor*float64(r.VolumeBaseline))))
	r.RateThreshold = maxInt64(cfg.MinWindowCollisions,
		int64(math.Ceil(cfg.RateFactor*float64(r.RateBaseline))))
	r.ConfirmThreshold = maxInt64(cfg.MinConfirmDrops,
		int64(math.Ceil(cfg.ConfirmFactor*float64(r.ConfirmBaseline))))

	// Verdicts.
	for _, k := range keys {
		a := acc[k]
		busy := a.attPeak >= r.VolumeThreshold
		if a.attPeak >= r.FloodThreshold {
			a.reasons = append(a.reasons, "flood")
		}
		if busy && a.peak >= r.RateThreshold {
			a.reasons = append(a.reasons, "rate")
		}
		if busy && a.depth >= cfg.DepthLimit && a.peak >= cfg.DepthMinPeak {
			a.reasons = append(a.reasons, "depth")
		}
		if a.confirms >= r.ConfirmThreshold {
			a.reasons = append(a.reasons, "confirm")
		}
	}

	// Second scan: the cycle each flagged link first crossed its
	// thresholds, the detection-latency numerator.
	run := make(map[Link]*refLinkAcc, len(acc))
	for _, e := range events {
		if e.Src < 0 || e.Dst < 0 || int64(e.At) < warmCycles {
			continue
		}
		k := Link{Src: int(e.Src), Dst: int(e.Dst)}
		a := acc[k]
		if a == nil || len(a.reasons) == 0 || a.flaggedAt >= 0 {
			continue
		}
		s := run[k]
		if s == nil {
			s = &refLinkAcc{attWindow: -1, window: -1}
			run[k] = s
		}
		switch e.Kind {
		case KindTxStart, KindRetransmit:
			s.noteAttempt(int64(e.At), cfg.WindowCycles)
		case KindCollision:
			s.noteCollision(int64(e.At), cfg.WindowCycles)
		case KindBackoff:
			if d := int64(e.Attempt); d > s.depth {
				s.depth = d
			}
		case KindConfirmDrop:
			s.confirms++
		}
		busy := s.attPeak >= r.VolumeThreshold
		switch {
		case refHasReason(a, "flood") && s.attIn >= r.FloodThreshold,
			refHasReason(a, "rate") && busy && s.inWindow >= r.RateThreshold,
			refHasReason(a, "depth") && busy && s.depth >= cfg.DepthLimit && s.peak >= cfg.DepthMinPeak,
			refHasReason(a, "confirm") && s.confirms >= r.ConfirmThreshold:
			a.flaggedAt = int64(e.At)
		}
	}

	for _, k := range keys {
		a := acc[k]
		p := LinkProfile{
			Link: k, Attempts: a.att, PeakAttempts: a.attPeak,
			Collisions: a.coll, PeakWindow: a.peak,
			MaxDepth: a.depth, ConfirmDrops: a.confirms,
			FlaggedAt: a.flaggedAt, Reason: strings.Join(a.reasons, "+"),
		}
		r.Links = append(r.Links, p)
		if p.Reason != "" {
			r.Flagged = append(r.Flagged, p)
		}
	}
	return r
}

func refHasReason(a *refLinkAcc, want string) bool {
	for _, r := range a.reasons {
		if r == want {
			return true
		}
	}
	return false
}

// refQuantileInt returns the q-quantile of vs by the nearest-rank method
// (0 for an empty sample). Integer in, integer out: no float compare
// ambiguity enters the byte surface.
func refQuantileInt(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := make([]int64, len(vs))
	copy(sorted, vs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tightDetector is a configuration short scripts can trip: 8-cycle
// windows, one of them warm-up, and floors of a few events.
var tightDetector = DetectorConfig{
	WindowCycles: 8, WarmupWindows: 1, MinFloodAttempts: 6, MinVolumeAttempts: 3,
	MinWindowCollisions: 3, DepthLimit: 5, DepthMinPeak: 2, MinConfirmDrops: 3,
}

// detectMatchesReference records an emission script (its ids renamed
// through edgeIDs when edges is set) in firing order and holds Detect to
// refDetect over its events: every field of the report, both link
// lists (FlaggedAt and Reason included) and both renderings.
func detectMatchesReference(t *testing.T, nodes int, script []byte, edges bool, cfg DetectorConfig) *Report {
	t.Helper()
	events := scriptEvents(nodes, script, false)
	if edges {
		withEdgeIDs(events)
	}
	rec := recordFired(events)
	got, want := Detect(events, cfg), refDetect(events, cfg)
	if inPlace := rec.Detect(cfg); !slices.Equal(inPlace.CanonicalLines(), got.CanonicalLines()) || inPlace.Table() != got.Table() {
		t.Fatalf("nodes %d: the detector reads the log's chunks and its slice differently\n%s\n%s", nodes, inPlace.Table(), got.Table())
	}
	if !slices.Equal(got.Links, want.Links) {
		t.Fatalf("nodes %d: links differ\n got %+v\nwant %+v", nodes, got.Links, want.Links)
	}
	if !slices.Equal(got.Flagged, want.Flagged) {
		t.Fatalf("nodes %d: flagged links differ\n got %+v\nwant %+v", nodes, got.Flagged, want.Flagged)
	}
	g, w := *got, *want
	g.Links, g.Flagged, w.Links, w.Flagged = nil, nil, nil, nil
	if fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", w) {
		t.Fatalf("nodes %d: reports differ\n got %+v\nwant %+v", nodes, g, w)
	}
	if got.Table() != want.Table() {
		t.Fatalf("nodes %d: tables differ\n got:\n%s\nwant:\n%s", nodes, got.Table(), want.Table())
	}
	if !slices.Equal(got.CanonicalLines(), want.CanonicalLines()) {
		t.Fatalf("nodes %d: canonical lines differ\n got %v\nwant %v", nodes, got.CanonicalLines(), want.CanonicalLines())
	}
	return got
}

// flaggingScript is an 8-node script that tightDetector flags for exactly
// one rule on link 1->0. Nodes 2-6 send node 0 one attempt and one
// collision each past the warm-up window, which puts every baseline at 1
// (confirmation losses at 0); node 1 then does what the rule needs.
func flaggingScript(rule string) []byte {
	var script []byte
	add := func(node int, kind Kind, advance int, detail byte, times int) {
		script = append(script, bytes.Repeat(scriptEvent(node, kind, advance, 0, detail), times)...)
	}
	for node := 1; node <= 6; node++ {
		add(node, KindInject, 3, 0, 3) // to cycle 9, window 1
	}
	for node := 2; node <= 6; node++ {
		add(node, KindTxStart, 0, 0, 1)
		add(node, KindCollision, 0, 0, 1)
	}
	switch rule {
	case "flood": // six attempts in a window, the flood floor
		add(1, KindTxStart, 0, 0, 4)
		add(1, KindRetransmit, 0, 1, 4)
	case "rate": // four attempts (busy) and four collisions, four times the baseline
		add(1, KindTxStart, 0, 0, 5)
		add(1, KindCollision, 0, 0, 4)
	case "depth": // busy, two collisions, a fifth backoff attempt
		add(1, KindTxStart, 0, 0, 4)
		add(1, KindCollision, 0, 0, 2)
		add(1, KindBackoff, 0, 5, 1)
	case "confirm": // three lost confirmations where the rest lose none
		add(1, KindTxStart, 0, 0, 1)
		add(1, KindConfirmDrop, 1, 0, 3)
	}
	return script
}

// flaggingScriptAs is flaggingScript with node and node 1 trading places,
// so that node's link to 0 is the flagged one.
func flaggingScriptAs(rule string, node int) []byte {
	script := flaggingScript(rule)
	for i := 0; i < len(script); i += scriptBytes {
		switch int(script[i]) {
		case 1:
			script[i] = byte(node)
		case node:
			script[i] = 1
		}
	}
	return script
}

var detectRules = []string{"flood", "rate", "depth", "confirm"}

// TestDetectMatchesReference holds the slab detector to the map one on
// scripts that flag 1->0 by each rule alone (so the flagged-at scan and
// every reason bit are compared, not only skipped), on their
// concatenation, and on random scripts under both configurations, one in
// four with its ids renamed through edgeIDs.
func TestDetectMatchesReference(t *testing.T) {
	var all []byte
	for _, rule := range detectRules {
		script := flaggingScript(rule)
		all = append(all, script...)
		r := detectMatchesReference(t, 8, script, false, tightDetector)
		if len(r.Flagged) != 1 || r.Flagged[0].Link != (Link{Src: 1, Dst: 0}) || r.Flagged[0].Reason != rule || r.Flagged[0].FlaggedAt < 8 {
			t.Fatalf("%s script: flagged %+v, want 1->0 for %q past the warm-up", rule, r.Flagged, rule)
		}
		if d := detectMatchesReference(t, 8, script, false, DetectorConfig{}); len(d.Flagged) != 0 {
			t.Fatalf("%s script under the default configuration flagged %+v", rule, d.Flagged)
		}
		// The flagger renamed to 255, 256 and 2³¹-1.
		for node := 2; node < len(edgeIDs)-1; node++ {
			want := Link{Src: int(edgeIDs[node]), Dst: 0}
			r := detectMatchesReference(t, 8, flaggingScriptAs(rule, node), true, tightDetector)
			if len(r.Flagged) != 1 || r.Flagged[0].Link != want || r.Flagged[0].Reason != rule {
				t.Fatalf("%s script from node %d: flagged %+v, want %v", rule, want.Src, r.Flagged, want)
			}
		}
	}
	if r := detectMatchesReference(t, 8, all, false, tightDetector); len(r.Flagged) == 0 || !strings.Contains(r.Flagged[0].Reason, "+") {
		t.Fatalf("the four scripts together flagged %+v, want 1->0 for several rules", r.Flagged)
	}
	rng := sim.NewRNG(22)
	flagged := 0
	for trial := 0; trial < 200; trial++ {
		nodes := 1 + rng.Intn(9)
		script := randomScript(rng, 600, trial%3 != 0)
		edges := trial%4 == 0
		detectMatchesReference(t, nodes, script, edges, DetectorConfig{})
		flagged += len(detectMatchesReference(t, nodes, script, edges, tightDetector).Flagged)
	}
	if flagged == 0 {
		t.Fatal("no random script flagged a link: the comparison never reached the second scan")
	}
}

// FuzzDetectMatchesReference holds Detect to the map-based reference over
// arbitrary emission scripts, under the default configuration and the
// tight one, with ids renamed through edgeIDs or not. The seeds flag by
// each rule, 1->0 and, renamed, 255->0, 256->0 and 2³¹-1->0 (and, from
// source -1, nothing).
func FuzzDetectMatchesReference(f *testing.F) {
	for _, rule := range detectRules {
		f.Add(uint8(7), true, false, flaggingScript(rule))
	}
	f.Add(uint8(7), false, false, flaggingScript("flood"))
	f.Add(uint8(63), true, false, []byte{})
	for node := 2; node < len(edgeIDs); node++ {
		for _, rule := range detectRules {
			f.Add(uint8(7), true, true, flaggingScriptAs(rule, node))
		}
	}
	f.Fuzz(func(t *testing.T, nodes uint8, tight, edges bool, script []byte) {
		cfg := DetectorConfig{}
		if tight {
			cfg = tightDetector
		}
		detectMatchesReference(t, int(nodes)%64+1, script, edges, cfg)
	})
}

// TestDetectAllocatesByLinks: on a run that flags nothing the detector's
// allocations follow the links, whatever the number of events (the map
// version allocated an accumulator per link). 64x64 links take 32 chunks
// of 128 records, 6 doublings of the chunk list (to 1, 2, ... 32), 3
// dense squares (16, 32 and 64 on a side), and 6 fixed: the sorted keys,
// three baseline samples, the link list and the report. 47 in all; the
// same links through the table would take its 12 sizes (4 to 8192 slots,
// three arrays each) for the 3 squares, 80 in all.
func TestDetectAllocatesByLinks(t *testing.T) {
	events := func(rounds int) []Event {
		var out []Event
		for r := 0; r < rounds; r++ {
			for src := 0; src < 64; src++ {
				for dst := 0; dst < 64; dst++ {
					out = append(out, ev(KindTxStart, int64(5000+300*r+src), src, dst, 0))
				}
			}
		}
		sortEvents(out)
		return out
	}
	few, many := events(1), events(4)
	if r := Detect(many, DetectorConfig{}); len(r.Links) != 64*64 || len(r.Flagged) != 0 {
		t.Fatalf("%d links and %d flagged, want 4096 and 0", len(r.Links), len(r.Flagged))
	}
	a := testing.AllocsPerRun(5, func() { Detect(few, DetectorConfig{}) })
	b := testing.AllocsPerRun(5, func() { Detect(many, DetectorConfig{}) })
	if want := float64(64*64/slabChunk + 6 + 3 + 6); a != b || a > want {
		t.Fatalf("Detect allocated %v times over %d events and %v over %d; want equal and at most %v for 4096 links", a, len(few), b, len(many), want)
	}
}
