package obs

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"fsoi/internal/stats"
)

// Detector configuration defaults; see DetectorConfig.
const (
	defaultWindowCycles        = 2048
	defaultWarmupWindows       = 2
	defaultQuantile            = 0.75
	defaultFloodFactor         = 6.0
	defaultMinFloodAttempts    = 96
	defaultVolumeFactor        = 4.0
	defaultMinVolumeAttempts   = 24
	defaultRateFactor          = 4.0
	defaultMinWindowCollisions = 32
	defaultDepthLimit          = 14
	defaultDepthMinPeak        = 8
	defaultConfirmFactor       = 4.0
	defaultMinConfirmDrops     = 16
)

// DetectorConfig tunes the adversarial-traffic detector. The zero value
// selects the defaults above, which hold zero false positives on every
// attack-free configuration in the test suite while flagging the
// attacker-adjacent links of the resilience sweep.
type DetectorConfig struct {
	// WindowCycles is the counting window length.
	WindowCycles int64
	// WarmupWindows excludes the run's first windows from every count:
	// at cold start all nodes miss at once and briefly storm the memory
	// controller links, a transient that looks exactly like an attack
	// but ends within a couple of windows. Negative disables exclusion.
	WarmupWindows int64
	// Quantile picks each baseline from the distribution of per-link
	// peak window counts (0.75 = upper quartile). A percentile-derived
	// baseline self-calibrates to the run's honest traffic level, so
	// the same factors serve a quiet 16-node run and a saturated
	// 64-node one.
	Quantile float64
	// FloodFactor scales the volume baseline into the flood threshold:
	// a link pushing this many times the typical busy link's window
	// peak is hostile on volume alone, collisions or not. A jammer
	// cannot jam without transmitting.
	FloodFactor float64
	// MinFloodAttempts floors the flood threshold, guarding
	// nearly-idle runs where the baseline is tiny.
	MinFloodAttempts int64
	// VolumeFactor scales the volume baseline into the corroboration
	// threshold the rate and depth rules require: congestion symptoms
	// only implicate a link that is itself anomalously busy. Without
	// this gate, honest senders backing off from a jammed receiver
	// would be flagged for the attacker's crime.
	VolumeFactor float64
	// MinVolumeAttempts floors the corroboration threshold.
	MinVolumeAttempts int64
	// RateFactor scales the collision baseline into the rate-anomaly
	// threshold.
	RateFactor float64
	// MinWindowCollisions floors the rate threshold, guarding
	// nearly-collision-free runs where the baseline is ~0.
	MinWindowCollisions int64
	// DepthLimit flags a link whose deepest backoff attempt reaches it...
	DepthLimit int64
	// ...provided the link also saw DepthMinPeak collisions in one
	// window (and passes the volume gate).
	DepthMinPeak int64
	// ConfirmFactor and MinConfirmDrops mirror the rate rule for
	// confirmation losses (the starver's signature). Confirmation
	// drops need no volume corroboration: a healthy fault-free link
	// loses none, so any pile-up is anomalous wherever it appears.
	ConfirmFactor   float64
	MinConfirmDrops int64
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.WindowCycles <= 0 {
		c.WindowCycles = defaultWindowCycles
	}
	if c.WarmupWindows == 0 {
		c.WarmupWindows = defaultWarmupWindows
	}
	if c.WarmupWindows < 0 {
		c.WarmupWindows = 0
	}
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = defaultQuantile
	}
	if c.FloodFactor <= 0 {
		c.FloodFactor = defaultFloodFactor
	}
	if c.MinFloodAttempts <= 0 {
		c.MinFloodAttempts = defaultMinFloodAttempts
	}
	if c.VolumeFactor <= 0 {
		c.VolumeFactor = defaultVolumeFactor
	}
	if c.MinVolumeAttempts <= 0 {
		c.MinVolumeAttempts = defaultMinVolumeAttempts
	}
	if c.RateFactor <= 0 {
		c.RateFactor = defaultRateFactor
	}
	if c.MinWindowCollisions <= 0 {
		c.MinWindowCollisions = defaultMinWindowCollisions
	}
	if c.DepthLimit <= 0 {
		c.DepthLimit = defaultDepthLimit
	}
	if c.DepthMinPeak <= 0 {
		c.DepthMinPeak = defaultDepthMinPeak
	}
	if c.ConfirmFactor <= 0 {
		c.ConfirmFactor = defaultConfirmFactor
	}
	if c.MinConfirmDrops <= 0 {
		c.MinConfirmDrops = defaultMinConfirmDrops
	}
	return c
}

// LinkProfile is one link's contention record with its verdict.
type LinkProfile struct {
	Link
	Attempts     int64  // transmission attempts over the whole run
	PeakAttempts int64  // most attempts in any one window
	Collisions   int64  // collision events over the whole run
	PeakWindow   int64  // most collisions in any one window
	MaxDepth     int64  // deepest backoff attempt
	ConfirmDrops int64  // lost confirmations
	FlaggedAt    int64  // cycle of the first threshold crossing (-1 = clean)
	Reason       string // "flood", "rate", "depth", "confirm", "+"-joined when several
}

// Report is the detector's output over one run's lifecycle events.
type Report struct {
	Cfg              DetectorConfig
	Windows          int64 // windows spanned by the observed events
	VolumeBaseline   int64 // Quantile of per-link peak attempt windows
	FloodThreshold   int64
	VolumeThreshold  int64 // corroboration gate for the rate/depth rules
	RateBaseline     int64 // Quantile of per-link peak collision windows
	RateThreshold    int64
	ConfirmBaseline  int64 // Quantile of per-link confirmation-loss totals
	ConfirmThreshold int64
	Links            int           // links with contention signal
	Flagged          []LinkProfile // the anomalous subset, by (src, dst)
}

// linkAcc accumulates one link's signals during an event scan.
type linkAcc struct {
	key       uint64 // linkKey of the link
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
	reasons   reason
}

// reason is the set of rules a link crossed, one bit each.
type reason uint8

const (
	reasonFlood reason = 1 << iota
	reasonRate
	reasonDepth
	reasonConfirm
)

// reasonNames lists the rules in bit order, the order a verdict names them.
var reasonNames = [...]string{"flood", "rate", "depth", "confirm"}

// String joins the names of the rules in the set with "+".
func (r reason) String() string {
	var b []byte
	for i, name := range reasonNames {
		if r&(1<<i) == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, '+')
		}
		b = append(b, name...)
	}
	return string(b)
}

// profile is the link's record with its verdict.
func (a *linkAcc) profile() LinkProfile {
	return LinkProfile{
		Link:     Link{Src: int(a.key >> 32), Dst: int(uint32(a.key))},
		Attempts: a.att, PeakAttempts: a.attPeak,
		Collisions: a.coll, PeakWindow: a.peak,
		MaxDepth: a.depth, ConfirmDrops: a.confirms,
		FlaggedAt: a.flaggedAt, Reason: a.reasons.String(),
	}
}

// profiles lists the profiles of the links keep admits by (src, dst): the
// ids are non-negative, so the packed keys sort that way as integers.
func profiles(links *linkSlab[linkAcc], keep func(*linkAcc) bool) []LinkProfile {
	var keys []uint64
	for i := range links.len() {
		if a := links.rec(i); keep(a) {
			keys = append(keys, a.key)
		}
	}
	slices.Sort(keys)
	out := make([]LinkProfile, len(keys))
	for i, key := range keys {
		out[i] = links.find(key).profile()
	}
	return out
}

// note folds one event into its link's counts and windows.
func (a *linkAcc) note(e Event, windowCycles int64) {
	switch e.Kind {
	case KindTxStart, KindRetransmit:
		a.att++
		if w := int64(e.At) / windowCycles; w != a.attWindow {
			a.attWindow, a.attIn = w, 0
		}
		a.attIn++
		if a.attIn > a.attPeak {
			a.attPeak = a.attIn
		}
	case KindCollision:
		a.coll++
		if w := int64(e.At) / windowCycles; w != a.window {
			a.window, a.inWindow = w, 0
		}
		a.inWindow++
		if a.inWindow > a.peak {
			a.peak = a.inWindow
		}
	case KindBackoff:
		if d := int64(e.Attempt); d > a.depth {
			a.depth = d
		}
	case KindConfirmDrop:
		a.confirms++
	}
}

// Detect runs the windowed per-link anomaly detector over one run's
// lifecycle events. Events must be in non-decreasing At order —
// Recorder.Events and the JSONL export both guarantee it — and the
// result is a pure function of the event sequence, so a run that is
// byte-identical across engines yields a byte-identical report.
func Detect(events []Event, cfg DetectorConfig) *Report {
	r, _ := detect(run{cur: events}, cfg)
	return r
}

// Detect is the detector over the recorder's events, read where the log
// holds them.
func (r *Recorder) Detect(cfg DetectorConfig) *Report {
	rep, _ := detect(r.run(), cfg)
	return rep
}

// detect scans the events twice, each time from where start stands, and
// returns the report with the per-link accumulators it was judged from.
// It builds profiles for the flagged links only.
func detect(start run, cfg DetectorConfig) (*Report, linkSlab[linkAcc]) {
	cfg = cfg.withDefaults()
	var links linkSlab[linkAcc]
	warmCycles := cfg.WarmupWindows * cfg.WindowCycles
	var lastAt int64
	for w := start; len(w.cur) > 0; w.advance() {
		for _, e := range w.cur {
			if v := int64(e.At); v > lastAt {
				lastAt = v
			}
			if int64(e.At) < warmCycles || e.Src < 0 || e.Dst < 0 || !detectKind(e.Kind) {
				continue
			}
			key := linkKey(e.Src, e.Dst)
			a, fresh := links.at(key)
			if fresh {
				*a = linkAcc{key: key, attWindow: -1, window: -1, flaggedAt: -1}
			}
			a.note(e, cfg.WindowCycles)
		}
	}
	n := links.len()

	// Percentile-derived baselines over the per-link distributions, each
	// sampled in turn into one scratch slice.
	sample := make([]int64, 0, n)
	baseline := func(value func(*linkAcc) (int64, bool)) int64 {
		sample = sample[:0]
		for i := range n {
			if v, ok := value(links.rec(i)); ok {
				sample = append(sample, v)
			}
		}
		return quantileInt(sample, cfg.Quantile)
	}
	r := &Report{
		Cfg:            cfg,
		Windows:        lastAt/cfg.WindowCycles + 1,
		VolumeBaseline: baseline(func(a *linkAcc) (int64, bool) { return a.attPeak, a.att > 0 }),
		RateBaseline:   baseline(func(a *linkAcc) (int64, bool) { return a.peak, a.coll > 0 }),
		// Confirm losses baseline over every active link, zeros included:
		// a healthy link loses nothing, so when only the victim's links
		// pile up drops the quantile stays at the honest level instead of
		// being dragged up by the attack itself. Uniform physical-fault
		// drops (fault.Config.ConfirmDropProb) still lift it everywhere.
		ConfirmBaseline: baseline(func(a *linkAcc) (int64, bool) { return a.confirms, true }),
		Links:           n,
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
	flagged := 0
	for i := 0; i < n; i++ {
		a := links.rec(i)
		busy := a.attPeak >= r.VolumeThreshold
		if a.attPeak >= r.FloodThreshold {
			a.reasons |= reasonFlood
		}
		if busy && a.peak >= r.RateThreshold {
			a.reasons |= reasonRate
		}
		if busy && a.depth >= cfg.DepthLimit && a.peak >= cfg.DepthMinPeak {
			a.reasons |= reasonDepth
		}
		if a.confirms >= r.ConfirmThreshold {
			a.reasons |= reasonConfirm
		}
		if a.reasons != 0 {
			flagged++
		}
	}

	// Second scan: the cycle each flagged link first crossed its
	// thresholds, the detection-latency numerator. It looks only at
	// flagged links, so a run with none skips it.
	if flagged > 0 {
		// again[i] replays link i's counts from the start of the run.
		again := make([]linkAcc, n)
		for i := range again {
			again[i].attWindow, again[i].window = -1, -1
		}
		for w := start; len(w.cur) > 0; w.advance() {
			for _, e := range w.cur {
				if e.Src < 0 || e.Dst < 0 || int64(e.At) < warmCycles {
					continue
				}
				i := links.index(linkKey(e.Src, e.Dst))
				if i < 0 {
					continue
				}
				a := links.rec(i)
				if a.reasons == 0 || a.flaggedAt >= 0 {
					continue
				}
				s := &again[i]
				s.note(e, cfg.WindowCycles)
				busy := s.attPeak >= r.VolumeThreshold
				switch {
				case a.reasons&reasonFlood != 0 && s.attIn >= r.FloodThreshold,
					a.reasons&reasonRate != 0 && busy && s.inWindow >= r.RateThreshold,
					a.reasons&reasonDepth != 0 && busy && s.depth >= cfg.DepthLimit && s.peak >= cfg.DepthMinPeak,
					a.reasons&reasonConfirm != 0 && s.confirms >= r.ConfirmThreshold:
					a.flaggedAt = int64(e.At)
				}
			}
		}
	}

	if flagged > 0 {
		r.Flagged = profiles(&links, func(a *linkAcc) bool { return a.reasons != 0 })
	}
	return r, links
}

// detectKind reports whether the detector counts events of kind k.
func detectKind(k Kind) bool {
	switch k {
	case KindTxStart, KindRetransmit, KindCollision, KindBackoff, KindConfirmDrop:
		return true
	}
	return false
}

// quantileInt returns the q-quantile of vs by the nearest-rank method
// (0 for an empty sample), sorting vs to find it. Integer in, integer
// out: no float compare ambiguity enters the byte surface.
func quantileInt(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	idx := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[min(max(idx, 0), len(vs)-1)]
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// FlaggedLinks returns just the anomalous links, by (src, dst).
func (r *Report) FlaggedLinks() []Link {
	out := make([]Link, len(r.Flagged))
	for i, p := range r.Flagged {
		out[i] = p.Link
	}
	return out
}

// Table renders the verdicts: thresholds first, then the flagged links,
// then why each was flagged.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "detector: %d windows of %d cycles over %d links (first %d windows are warm-up)\n",
		r.Windows, r.Cfg.WindowCycles, r.Links, r.Cfg.WarmupWindows)
	fmt.Fprintf(&b, "thresholds: flood %d, volume gate %d (baseline %d), rate %d (baseline %d), confirm %d (baseline %d), depth limit %d\n",
		r.FloodThreshold, r.VolumeThreshold, r.VolumeBaseline,
		r.RateThreshold, r.RateBaseline, r.ConfirmThreshold, r.ConfirmBaseline, r.Cfg.DepthLimit)
	if len(r.Flagged) == 0 {
		b.WriteString("no anomalous links\n")
		return b.String()
	}
	t := stats.NewTable("link", "reason", "attempts", "peak-att", "collisions", "peak-coll", "max-backoff", "confirm-drops", "flagged-at")
	why := stats.NewTable("link", "rule", "observed", "threshold", "baseline", "margin")
	for _, p := range r.Flagged {
		link := fmt.Sprintf("%d->%d", p.Src, p.Dst)
		t.AddRow(link, p.Reason,
			fmt.Sprintf("%d", p.Attempts), fmt.Sprintf("%d", p.PeakAttempts),
			fmt.Sprintf("%d", p.Collisions), fmt.Sprintf("%d", p.PeakWindow),
			fmt.Sprintf("%d", p.MaxDepth), fmt.Sprintf("%d", p.ConfirmDrops),
			fmt.Sprintf("%d", p.FlaggedAt))
		for _, rule := range strings.Split(p.Reason, "+") {
			c := r.crossing(rule, p)
			why.AddRow(link, rule, fmt.Sprintf("%s %d", c.what, c.observed), fmt.Sprintf("%d", c.threshold), c.baseline,
				fmt.Sprintf("+%d (%.2fx)", c.observed-c.threshold, float64(c.observed)/float64(c.threshold)))
		}
	}
	b.WriteString(t.String())
	b.WriteString("\nwhy (each rule that fired: what the link reached, the threshold it met, the baseline quantile that was scaled from)\n")
	b.WriteString(why.String())
	return b.String()
}

// crossing is one rule's case against one link: the count the rule looks
// at, the threshold it reached and where the threshold came from.
type crossing struct {
	what                string // the LinkProfile count, named as Table's columns name it
	observed, threshold int64
	baseline            string // "4x p75=8": the factor, and the quantile of the per-link distribution it scaled
}

// crossing explains why rule (a name from reasonNames) flagged p. The
// rate and depth rules also needed the link past the volume gate, which
// the thresholds line states.
func (r *Report) crossing(rule string, p LinkProfile) crossing {
	scaled := func(factor float64, baseline, floor int64) string {
		s := fmt.Sprintf("%gx p%g=%d", factor, 100*r.Cfg.Quantile, baseline)
		if int64(math.Ceil(factor*float64(baseline))) < floor {
			return "floor, above " + s
		}
		return s
	}
	c := r.Cfg
	switch rule {
	case "flood":
		return crossing{"peak-att", p.PeakAttempts, r.FloodThreshold, scaled(c.FloodFactor, r.VolumeBaseline, c.MinFloodAttempts)}
	case "rate":
		return crossing{"peak-coll", p.PeakWindow, r.RateThreshold, scaled(c.RateFactor, r.RateBaseline, c.MinWindowCollisions)}
	case "depth":
		return crossing{"max-backoff", p.MaxDepth, c.DepthLimit, "fixed"}
	}
	return crossing{"confirm-drops", p.ConfirmDrops, r.ConfirmThreshold, scaled(c.ConfirmFactor, r.ConfirmBaseline, c.MinConfirmDrops)}
}

// CanonicalLines serializes the report for the canonical-metrics byte
// surface, one "key value" line per entry, flagged links included — the
// equivalence CI compares detection verdicts across engines, not just
// raw counters.
func (r *Report) CanonicalLines() []string {
	out := []string{
		fmt.Sprintf("detection.windows %d", r.Windows),
		fmt.Sprintf("detection.links %d", r.Links),
		fmt.Sprintf("detection.volume_baseline %d", r.VolumeBaseline),
		fmt.Sprintf("detection.flood_threshold %d", r.FloodThreshold),
		fmt.Sprintf("detection.volume_threshold %d", r.VolumeThreshold),
		fmt.Sprintf("detection.rate_baseline %d", r.RateBaseline),
		fmt.Sprintf("detection.rate_threshold %d", r.RateThreshold),
		fmt.Sprintf("detection.confirm_baseline %d", r.ConfirmBaseline),
		fmt.Sprintf("detection.confirm_threshold %d", r.ConfirmThreshold),
		fmt.Sprintf("detection.flagged %d", len(r.Flagged)),
	}
	for _, p := range r.Flagged {
		out = append(out, fmt.Sprintf("detection.flag %d->%d %s at=%d peak=%d depth=%d confirms=%d",
			p.Src, p.Dst, p.Reason, p.FlaggedAt, p.PeakWindow, p.MaxDepth, p.ConfirmDrops))
	}
	return out
}
