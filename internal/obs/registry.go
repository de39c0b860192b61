package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"fsoi/internal/stats"
)

// Link identifies one directed src->dst packet stream.
type Link struct {
	Src, Dst int
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
type Registry struct {
	byClass [2]*stats.Histogram
	byLink  map[Link]*stats.Histogram

	// Contention tracking for the detection layer (core.LinkObserver):
	// collision-event counts and deepest backoff attempt per link.
	collByLink  map[Link]int64
	depthByLink map[Link]int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byClass: [2]*stats.Histogram{
			stats.NewHistogram(registryWidth, registryBuckets),
			stats.NewHistogram(registryWidth, registryBuckets),
		},
		byLink:      make(map[Link]*stats.Histogram),
		collByLink:  make(map[Link]int64),
		depthByLink: make(map[Link]int64),
	}
}

// NoteCollision counts one collision event on src->dst.
func (g *Registry) NoteCollision(src, dst int) {
	g.collByLink[Link{Src: src, Dst: dst}]++
}

// NoteBackoff tracks the deepest backoff attempt seen on src->dst.
func (g *Registry) NoteBackoff(src, dst, attempt int) {
	key := Link{Src: src, Dst: dst}
	if int64(attempt) > g.depthByLink[key] {
		g.depthByLink[key] = int64(attempt)
	}
}

// Observe folds one delivered packet into the tables.
func (g *Registry) Observe(class uint8, src, dst int, latency int64) {
	if class > ClassData {
		class = ClassMeta
	}
	g.byClass[class].Add(latency)
	key := Link{Src: src, Dst: dst}
	h := g.byLink[key]
	if h == nil {
		h = stats.NewHistogram(registryWidth, registryBuckets)
		g.byLink[key] = h
	}
	h.Add(latency)
}

// Merge folds other into g. Histogram merges are exact bucket
// addition, so the result is independent of merge order; per-node
// registries merged in node order therefore aggregate identically at
// every shard and worker count.
func (g *Registry) Merge(other *Registry) {
	for c := range g.byClass {
		g.byClass[c].Merge(other.byClass[c])
	}
	for k, h := range other.byLink { // additive per-key merge: iteration order is immaterial
		mine := g.byLink[k]
		if mine == nil {
			mine = stats.NewHistogram(registryWidth, registryBuckets)
			g.byLink[k] = mine
		}
		mine.Merge(h)
	}
	for k, v := range other.collByLink { // additive per-key merge
		g.collByLink[k] += v
	}
	for k, v := range other.depthByLink { // per-key max merge: order-independent
		if v > g.depthByLink[k] {
			g.depthByLink[k] = v
		}
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

// rankedLink is a link with the count a table ranks it by. The count is
// read from its map once, when the row is built, so that ranking every
// link of a 64-node run to print sixteen compares integers instead of
// hashing links.
type rankedLink struct {
	Link
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
	rows := make([]rankedLink, 0, len(g.byLink))
	for k, h := range g.byLink {
		rows = append(rows, rankedLink{k, h.Total()})
	}
	slices.SortFunc(rows, heaviestFirst)
	rows, note := cutTop(rows, top)
	t := stats.NewTable("link", "n", "mean", "p50", "p90", "p99", "p999")
	for _, r := range rows {
		addRow(t, fmt.Sprintf("%d->%d", r.Src, r.Dst), g.byLink[r.Link])
	}
	return t.String() + note
}

// LinkCollisions reports the collision-event count recorded for one link.
func (g *Registry) LinkCollisions(k Link) int64 { return g.collByLink[k] }

// LinkDepth reports the deepest backoff attempt recorded for one link.
func (g *Registry) LinkDepth(k Link) int64 { return g.depthByLink[k] }

// ContentionTable renders the per-link contention table over every link
// with a collision or backoff record, most-collided links first (ties
// broken by src, dst), truncated to at most top rows (top <= 0 means
// every link). The truncation is announced, never silent.
func (g *Registry) ContentionTable(top int) string {
	rows := make([]rankedLink, 0, len(g.collByLink))
	for k, n := range g.collByLink {
		rows = append(rows, rankedLink{k, n})
	}
	for k := range g.depthByLink {
		if _, dup := g.collByLink[k]; !dup {
			rows = append(rows, rankedLink{k, 0})
		}
	}
	slices.SortFunc(rows, heaviestFirst)
	rows, note := cutTop(rows, top)
	t := stats.NewTable("link", "collisions", "max-backoff")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d->%d", r.Src, r.Dst),
			fmt.Sprintf("%d", r.n), fmt.Sprintf("%d", g.depthByLink[r.Link]))
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
	if len(g.collByLink)+len(g.depthByLink) > 0 {
		b.WriteString("\nlink contention (collision events, deepest backoff)\n")
		b.WriteString(g.ContentionTable(16))
	}
	return b.String()
}

// Links reports how many distinct src->dst links were observed.
func (g *Registry) Links() int { return len(g.byLink) }

// Class exposes one class histogram (tests, fsoitrace).
func (g *Registry) Class(c uint8) *stats.Histogram {
	if c > ClassData {
		c = ClassMeta
	}
	return g.byClass[c]
}
