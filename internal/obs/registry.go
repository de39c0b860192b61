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

const (
	// slabChunk is how many records one chunk of a linkSlab holds: 5 KB
	// of linkRec, 13 KB of linkAcc.
	slabChunk = 128
	// denseIDs bounds the dense index: a link whose ids both lie in
	// [0, denseIDs) is found by position in a square of int32s, so the
	// square is at most 256 KB. It is paid for whether or not its pairs
	// are seen; at 1024 nodes it would be 4 MB for the few thousand links
	// a run sees.
	denseIDs = 256
)

// linkSlab keeps one T per link: the records in first-seen order, in
// chunks of slabChunk that never move, so a record's pointer stays good
// for the slab's life. A link between ids in [0, denseIDs) is found
// through the dense (src, dst) square, which saves the simulator's runs
// the table and its doublings; any other link, such as the -1 and 2³¹-1
// fsoitrace accepts, through the table keyed by linkKey. The slab owns
// no memory until a link is added, and neither index holds a pointer.
type linkSlab[T any] struct {
	chunks []*[slabChunk]T
	n      int
	dense  []int32 // src*side+dst -> position+1, 0 when absent
	side   uint32  // 0 before the first dense link, then a power of two
	sparse table.Table[int32]
}

// len reports how many links the slab holds.
func (s *linkSlab[T]) len() int { return s.n }

// rec returns the record at position i, 0 <= i < len.
func (s *linkSlab[T]) rec(i int) *T { return &s.chunks[i/slabChunk][i%slabChunk] }

// index returns key's position, -1 when the link was never added.
func (s *linkSlab[T]) index(key uint64) int {
	if src, dst := uint32(key>>32), uint32(key); src|dst < denseIDs {
		if src|dst >= s.side {
			return -1
		}
		return int(s.dense[src*s.side+dst]) - 1
	}
	if i := s.sparse.Ref(key); i != nil {
		return int(*i)
	}
	return -1
}

// find returns key's record, nil when the link was never added.
func (s *linkSlab[T]) find(key uint64) *T {
	if i := s.index(key); i >= 0 {
		return s.rec(i)
	}
	return nil
}

// at returns key's record, adding a zero one (fresh reports it) on first
// sight.
func (s *linkSlab[T]) at(key uint64) (rec *T, fresh bool) {
	if i := s.index(key); i >= 0 {
		return s.rec(i), false
	}
	if src, dst := uint32(key>>32), uint32(key); src|dst < denseIDs {
		if src|dst >= s.side {
			s.widen(src | dst)
		}
		s.dense[src*s.side+dst] = int32(s.n + 1)
	} else {
		*s.sparse.Put(key) = int32(s.n)
	}
	if s.n%slabChunk == 0 {
		s.chunks = append(s.chunks, new([slabChunk]T))
	}
	s.n++
	return s.rec(s.n - 1), true
}

// widen doubles the dense square's side, from 16, until it exceeds ids
// (a link's two ids OR-ed), and moves every row over.
func (s *linkSlab[T]) widen(ids uint32) {
	side := max(s.side, 16)
	for side <= ids {
		side *= 2
	}
	dense := make([]int32, side*side)
	for src := range s.side {
		copy(dense[src*side:], s.dense[src*s.side:(src+1)*s.side])
	}
	s.dense, s.side = dense, side
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
	byClass [2]*stats.Histogram
	links   linkSlab[linkRec]
}

// linkRec is what the registry knows of one link: its delivered-packet
// latencies, its collision events and its deepest backoff attempt.
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

// Registry folds the log into a registry: each deliver event's latency
// into its class and link tables, each collision event into its link's
// count, and each backoff event's attempt into its link's deepest
// backoff. A nil recorder folds to nil.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	g := NewRegistry()
	for w := r.run(); len(w.cur) > 0; w.advance() {
		for _, e := range w.cur {
			switch e.Kind {
			case KindDeliver:
				g.Observe(e.Class, int(e.Src), int(e.Dst), e.Aux)
			case KindCollision:
				g.noteCollision(int(e.Src), int(e.Dst))
			case KindBackoff:
				g.noteBackoff(int(e.Src), int(e.Dst), int(e.Attempt))
			}
		}
	}
	return g
}

// rec returns k's record, adding an empty one on first sight.
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
	}
	return r.hist
}

// noteCollision counts one collision event on src->dst.
func (g *Registry) noteCollision(src, dst int) {
	g.rec(Link{Src: src, Dst: dst}).coll++
}

// noteBackoff tracks the deepest backoff attempt seen on src->dst.
func (g *Registry) noteBackoff(src, dst, attempt int) {
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

// ranked returns the rows of the links count admits, heaviest first, at
// most top of them (top <= 0 means all), and the line that announces what
// it cut, empty when it cut nothing: a truncation is stated, never silent.
// With a top it keeps only the heaviest rows seen so far while walking the
// slab, inserting each row that beats the lightest kept: heaviestFirst is
// a total order, so they are the rows a full sort would put first.
func (g *Registry) ranked(top int, count func(*linkRec) (int64, bool)) (rows []rankedLink, note string) {
	if top > 0 {
		rows = make([]rankedLink, 0, top)
	}
	seen := 0
	for i := range g.links.len() {
		r := g.links.rec(i)
		n, ok := count(r)
		if !ok {
			continue
		}
		seen++
		row := rankedLink{r, n}
		switch {
		case top <= 0:
			rows = append(rows, row)
			continue
		case len(rows) == top:
			if heaviestFirst(row, rows[top-1]) > 0 {
				continue
			}
			rows = rows[:top-1]
		}
		at, _ := slices.BinarySearchFunc(rows, row, heaviestFirst)
		rows = slices.Insert(rows, at, row)
	}
	if top <= 0 {
		slices.SortFunc(rows, heaviestFirst)
	} else if seen > top {
		note = fmt.Sprintf("(%d quieter links omitted)\n", seen-top)
	}
	return rows, note
}

// LinkTable renders the per-link percentile table, busiest links first
// (ties broken by src, dst), truncated to at most top rows (top <= 0
// means every link). The truncation is announced, never silent.
func (g *Registry) LinkTable(top int) string {
	rows, note := g.ranked(top, func(r *linkRec) (int64, bool) {
		if r.hist == nil {
			return 0, false
		}
		return r.hist.Total(), true
	})
	t := stats.NewTable("link", "n", "mean", "p50", "p90", "p99", "p999")
	for _, r := range rows {
		addRow(t, fmt.Sprintf("%d->%d", r.Src, r.Dst), r.hist)
	}
	return t.String() + note
}

// ContentionTable renders the per-link contention table over every link
// with a collision or backoff record, most-collided links first (ties
// broken by src, dst), truncated to at most top rows (top <= 0 means
// every link). The truncation is announced, never silent.
func (g *Registry) ContentionTable(top int) string {
	rows, note := g.ranked(top, func(r *linkRec) (int64, bool) { return r.coll, r.contended() })
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
	for i := 0; i < g.links.len(); i++ {
		if g.links.rec(i).contended() {
			b.WriteString("\nlink contention (collision events, deepest backoff)\n")
			b.WriteString(g.ContentionTable(16))
			break
		}
	}
	return b.String()
}
