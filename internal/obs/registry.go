package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"fsoi/internal/stats"
	"fsoi/internal/table"
)

// Link identifies one directed src->dst packet stream.
type Link struct {
	Src, Dst int
}

// linkKey packs a link into one table key. It is one-to-one over int32
// node ids, and over non-negative ids the integer order of keys is the
// (src, dst) order of links.
func linkKey(src, dst int32) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// linkSlab keeps one T per link: the records in first-seen order, and the
// table that finds a link's position among them. It owns no memory until
// a link is added, and its table's slots hold no pointer.
type linkSlab[T any] struct {
	index table.Table[int32]
	recs  []T
}

// find returns key's record, nil when the link was never added.
func (s *linkSlab[T]) find(key uint64) *T {
	if i := s.index.Ref(key); i != nil {
		return &s.recs[*i]
	}
	return nil
}

// at returns key's record, adding a zero one (fresh reports it) on first
// sight. The pointer is good until the next call.
func (s *linkSlab[T]) at(key uint64) (rec *T, fresh bool) {
	if r := s.find(key); r != nil {
		return r, false
	}
	*s.index.Put(key) = int32(len(s.recs))
	s.recs = append(s.recs, *new(T))
	return &s.recs[len(s.recs)-1], true
}

// registry histogram shape: 5-cycle buckets out to 2000 cycles covers
// every latency the paper's configurations produce; beyond that the
// overflow bucket is reported explicitly (">2000"), never folded into
// the last bound.
const (
	registryWidth   = 5
	registryBuckets = 400
)

// Registry accumulates delivered-packet latencies into percentile tables
// per packet class and per src->dst link, extending the Figure 5
// distribution reporting with the tail statistics (p50/p90/p99/p999)
// a production observability layer reports.
//
// Everything kept per link is one linkRec; nothing is allocated until a
// link is noted.
type Registry struct {
	byClass  [2]*stats.Histogram
	links    linkSlab[linkRec]
	observed int // records with a latency histogram
}

// linkRec is what the registry knows of one link: its delivered-packet
// latencies, and for the detection layer (core.LinkObserver) its
// collision events and deepest backoff attempt.
type linkRec struct {
	Link
	hist  *stats.Histogram // nil until a delivery is observed
	coll  int64
	depth int64
}

// contended reports whether the link has a contention record.
func (r *linkRec) contended() bool { return r.coll > 0 || r.depth > 0 }

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byClass: [2]*stats.Histogram{
			stats.NewHistogram(registryWidth, registryBuckets),
			stats.NewHistogram(registryWidth, registryBuckets),
		},
	}
}

// find returns k's record, nil when the link was never noted.
func (g *Registry) find(k Link) *linkRec {
	return g.links.find(linkKey(int32(k.Src), int32(k.Dst)))
}

// rec returns k's record, adding an empty one on first sight. The pointer
// is good until the next call.
func (g *Registry) rec(k Link) *linkRec {
	r, fresh := g.links.at(linkKey(int32(k.Src), int32(k.Dst)))
	if fresh {
		r.Link = k
	}
	return r
}

// latencies returns the record's histogram, building it on first use.
func (g *Registry) latencies(r *linkRec) *stats.Histogram {
	if r.hist == nil {
		r.hist = stats.NewHistogram(registryWidth, registryBuckets)
		g.observed++
	}
	return r.hist
}

// NoteCollision counts one collision event on src->dst.
func (g *Registry) NoteCollision(src, dst int) {
	g.rec(Link{Src: src, Dst: dst}).coll++
}

// NoteBackoff tracks the deepest backoff attempt seen on src->dst.
func (g *Registry) NoteBackoff(src, dst, attempt int) {
	if r := g.rec(Link{Src: src, Dst: dst}); int64(attempt) > r.depth {
		r.depth = int64(attempt)
	}
}

// Observe folds one delivered packet into the tables.
func (g *Registry) Observe(class uint8, src, dst int, latency int64) {
	if class > ClassData {
		class = ClassMeta
	}
	g.byClass[class].Add(latency)
	g.latencies(g.rec(Link{Src: src, Dst: dst})).Add(latency)
}

// Merge folds other into g. Histogram merges are exact bucket
// addition, so the result is independent of merge order; per-block
// registries merged in block order therefore aggregate identically at
// every shard and worker count.
func (g *Registry) Merge(other *Registry) {
	for c := range g.byClass {
		g.byClass[c].Merge(other.byClass[c])
	}
	for i := range other.links.recs {
		theirs := &other.links.recs[i]
		mine := g.rec(theirs.Link)
		if theirs.hist != nil {
			g.latencies(mine).Merge(theirs.hist)
		}
		mine.coll += theirs.coll
		mine.depth = max(mine.depth, theirs.depth)
	}
}

// quantiles are the reported percentile points.
var quantiles = []struct {
	name string
	frac float64
}{
	{"p50", 0.50},
	{"p90", 0.90},
	{"p99", 0.99},
	{"p999", 0.999},
}

// fmtQuantile renders one percentile bound, prefixing ">" when the mass
// lands in the overflow bucket so a saturated tail is never mistaken for
// the last real bound.
func fmtQuantile(h *stats.Histogram, frac float64) string {
	bound, over := h.PercentileBound(frac)
	if over {
		return fmt.Sprintf(">%d", bound)
	}
	return fmt.Sprintf("%d", bound)
}

// addRow appends one histogram's row to a percentile table.
func addRow(t *stats.Table, label string, h *stats.Histogram) {
	cells := []string{label, fmt.Sprintf("%d", h.Total()), fmt.Sprintf("%.1f", h.Mean())}
	for _, q := range quantiles {
		cells = append(cells, fmtQuantile(h, q.frac))
	}
	t.AddRow(cells...)
}

// ClassTable renders the per-packet-class percentile table.
func (g *Registry) ClassTable() string {
	t := stats.NewTable("class", "n", "mean", "p50", "p90", "p99", "p999")
	addRow(t, "meta", g.byClass[ClassMeta])
	addRow(t, "data", g.byClass[ClassData])
	return t.String()
}

// rankedLink is one row of a ranked table: a link's record and the count
// the table ranks it by.
type rankedLink struct {
	*linkRec
	n int64
}

// heaviestFirst orders ranked links by descending count, ties broken by
// (src, dst). Links are distinct, so the order is total.
func heaviestFirst(a, b rankedLink) int {
	return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
}

// cutTop keeps at most top rows (top <= 0 means all of them) and returns
// the line that announces what it cut, empty when it cut nothing: a
// truncation is stated, never silent.
func cutTop(rows []rankedLink, top int) (kept []rankedLink, note string) {
	if top <= 0 || len(rows) <= top {
		return rows, ""
	}
	return rows[:top], fmt.Sprintf("(%d quieter links omitted)\n", len(rows)-top)
}

// LinkTable renders the per-link percentile table, busiest links first
// (ties broken by src, dst), truncated to at most top rows (top <= 0
// means every link). The truncation is announced, never silent.
func (g *Registry) LinkTable(top int) string {
	rows := make([]rankedLink, 0, g.observed)
	for i := range g.links.recs {
		if r := &g.links.recs[i]; r.hist != nil {
			rows = append(rows, rankedLink{r, r.hist.Total()})
		}
	}
	slices.SortFunc(rows, heaviestFirst)
	rows, note := cutTop(rows, top)
	t := stats.NewTable("link", "n", "mean", "p50", "p90", "p99", "p999")
	for _, r := range rows {
		addRow(t, fmt.Sprintf("%d->%d", r.Src, r.Dst), r.hist)
	}
	return t.String() + note
}

// LinkCollisions reports the collision-event count recorded for one link.
func (g *Registry) LinkCollisions(k Link) int64 {
	if r := g.find(k); r != nil {
		return r.coll
	}
	return 0
}

// LinkDepth reports the deepest backoff attempt recorded for one link.
func (g *Registry) LinkDepth(k Link) int64 {
	if r := g.find(k); r != nil {
		return r.depth
	}
	return 0
}

// ContentionTable renders the per-link contention table over every link
// with a collision or backoff record, most-collided links first (ties
// broken by src, dst), truncated to at most top rows (top <= 0 means
// every link). The truncation is announced, never silent.
func (g *Registry) ContentionTable(top int) string {
	rows := make([]rankedLink, 0, len(g.links.recs))
	for i := range g.links.recs {
		if r := &g.links.recs[i]; r.contended() {
			rows = append(rows, rankedLink{r, r.coll})
		}
	}
	slices.SortFunc(rows, heaviestFirst)
	rows, note := cutTop(rows, top)
	t := stats.NewTable("link", "collisions", "max-backoff")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d->%d", r.Src, r.Dst),
			fmt.Sprintf("%d", r.n), fmt.Sprintf("%d", r.depth))
	}
	return t.String() + note
}

// String renders every table (the contention table only once something
// was recorded into it).
func (g *Registry) String() string {
	var b strings.Builder
	b.WriteString("latency percentiles by packet class (cycles)\n")
	b.WriteString(g.ClassTable())
	b.WriteString("\nlatency percentiles by link (cycles)\n")
	b.WriteString(g.LinkTable(16))
	if slices.ContainsFunc(g.links.recs, func(r linkRec) bool { return r.contended() }) {
		b.WriteString("\nlink contention (collision events, deepest backoff)\n")
		b.WriteString(g.ContentionTable(16))
	}
	return b.String()
}

// Links reports how many distinct src->dst links were observed.
func (g *Registry) Links() int { return g.observed }

// Class exposes one class histogram (tests, fsoitrace).
func (g *Registry) Class(c uint8) *stats.Histogram {
	if c > ClassData {
		c = ClassMeta
	}
	return g.byClass[c]
}
