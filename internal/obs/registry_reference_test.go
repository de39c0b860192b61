package obs

// Registry as it stood before one slab replaced its three Go maps, kept
// word for word as the reference of TestRegistryMatchesReference (less
// Merge, which went with the live one, and the name of the core interface
// that once fed both).
// addRow, fmtQuantile and the quantile list are shared with the live
// code: PR 22 did not touch them.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fsoi/internal/sim"
	"fsoi/internal/stats"
)

// refRegistry accumulates delivered-packet latencies into percentile tables
// per packet class and per src->dst link, extending the Figure 5
// distribution reporting with the tail statistics (p50/p90/p99/p999)
// a production observability layer reports.
type refRegistry struct {
	byClass [2]*stats.Histogram
	byLink  map[Link]*stats.Histogram

	// Contention tracking for the detection layer:
	// collision-event counts and deepest backoff attempt per link.
	collByLink  map[Link]int64
	depthByLink map[Link]int64
}

// newRefRegistry builds an empty registry.
func newRefRegistry() *refRegistry {
	return &refRegistry{
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
func (g *refRegistry) NoteCollision(src, dst int) {
	g.collByLink[Link{Src: src, Dst: dst}]++
}

// NoteBackoff tracks the deepest backoff attempt seen on src->dst.
func (g *refRegistry) NoteBackoff(src, dst, attempt int) {
	key := Link{Src: src, Dst: dst}
	if int64(attempt) > g.depthByLink[key] {
		g.depthByLink[key] = int64(attempt)
	}
}

// Observe folds one delivered packet into the tables.
func (g *refRegistry) Observe(class uint8, src, dst int, latency int64) {
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

// ClassTable renders the per-packet-class percentile table.
func (g *refRegistry) ClassTable() string {
	t := stats.NewTable("class", "n", "mean", "p50", "p90", "p99", "p999")
	addRow(t, "meta", g.byClass[ClassMeta])
	addRow(t, "data", g.byClass[ClassData])
	return t.String()
}

// refRankedLink is a link with the count a table ranks it by. The count is
// read from its map once, when the row is built, so that ranking every
// link of a 64-node run to print sixteen compares integers instead of
// hashing links.
type refRankedLink struct {
	Link
	n int64
}

// refHeaviestFirst orders ranked links by descending count, ties broken by
// (src, dst). Links are distinct, so the order is total.
func refHeaviestFirst(a, b refRankedLink) int {
	return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
}

// refCutTop keeps at most top rows (top <= 0 means all of them) and returns
// the line that announces what it cut, empty when it cut nothing: a
// truncation is stated, never silent.
func refCutTop(rows []refRankedLink, top int) (kept []refRankedLink, note string) {
	if top <= 0 || len(rows) <= top {
		return rows, ""
	}
	return rows[:top], fmt.Sprintf("(%d quieter links omitted)\n", len(rows)-top)
}

// LinkTable renders the per-link percentile table, busiest links first
// (ties broken by src, dst), truncated to at most top rows (top <= 0
// means every link). The truncation is announced, never silent.
func (g *refRegistry) LinkTable(top int) string {
	rows := make([]refRankedLink, 0, len(g.byLink))
	for k, h := range g.byLink {
		rows = append(rows, refRankedLink{k, h.Total()})
	}
	slices.SortFunc(rows, refHeaviestFirst)
	rows, note := refCutTop(rows, top)
	t := stats.NewTable("link", "n", "mean", "p50", "p90", "p99", "p999")
	for _, r := range rows {
		addRow(t, fmt.Sprintf("%d->%d", r.Src, r.Dst), g.byLink[r.Link])
	}
	return t.String() + note
}

// LinkCollisions reports the collision-event count recorded for one link.
func (g *refRegistry) LinkCollisions(k Link) int64 { return g.collByLink[k] }

// LinkDepth reports the deepest backoff attempt recorded for one link.
func (g *refRegistry) LinkDepth(k Link) int64 { return g.depthByLink[k] }

// ContentionTable renders the per-link contention table over every link
// with a collision or backoff record, most-collided links first (ties
// broken by src, dst), truncated to at most top rows (top <= 0 means
// every link). The truncation is announced, never silent.
func (g *refRegistry) ContentionTable(top int) string {
	rows := make([]refRankedLink, 0, len(g.collByLink))
	for k, n := range g.collByLink {
		rows = append(rows, refRankedLink{k, n})
	}
	for k := range g.depthByLink {
		if _, dup := g.collByLink[k]; !dup {
			rows = append(rows, refRankedLink{k, 0})
		}
	}
	slices.SortFunc(rows, refHeaviestFirst)
	rows, note := refCutTop(rows, top)
	t := stats.NewTable("link", "collisions", "max-backoff")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d->%d", r.Src, r.Dst),
			fmt.Sprintf("%d", r.n), fmt.Sprintf("%d", g.depthByLink[r.Link]))
	}
	return t.String() + note
}

// String renders every table (the contention table only once something
// was recorded into it).
func (g *refRegistry) String() string {
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
func (g *refRegistry) Links() int { return len(g.byLink) }

// Class exposes one class histogram (tests, fsoitrace).
func (g *refRegistry) Class(c uint8) *stats.Histogram {
	if c > ClassData {
		c = ClassMeta
	}
	return g.byClass[c]
}

// observeRun feeds recorded events to the reference registry the way
// Recorder.Registry folds them: collisions, backoffs and deliveries.
func observeRun(g *refRegistry, run []Event) {
	for _, e := range run {
		switch e.Kind {
		case KindCollision:
			g.NoteCollision(int(e.Src), int(e.Dst))
		case KindBackoff:
			g.NoteBackoff(int(e.Src), int(e.Dst), int(e.Attempt))
		case KindDeliver:
			g.Observe(e.Class, int(e.Src), int(e.Dst), e.Aux)
		}
	}
}

// registryMatchesReference records an emission script (its ids renamed
// through edgeIDs when edges is set), folds the log into a registry and
// holds it to the reference fed the same events, comparing everything a
// registry can be asked. It returns how many links
// the registry holds records for.
func registryMatchesReference(t *testing.T, nodes int, script []byte, edges bool) int {
	t.Helper()
	events, rename := scriptEvents(nodes, script, false), func(id int32) int32 { return id }
	if edges {
		withEdgeIDs(events)
		rename = edgeID
	}
	got, want := recordFired(events).Registry(), newRefRegistry()
	observeRun(want, events)
	if got.String() != want.String() {
		t.Fatalf("nodes %d: String differs\n got:\n%s\nwant:\n%s", nodes, got, want)
	}
	if got.LinkTable(0) != want.LinkTable(0) || got.ContentionTable(0) != want.ContentionTable(0) {
		t.Fatalf("nodes %d: uncut tables differ\n got:\n%s%s\nwant:\n%s%s", nodes,
			got.LinkTable(0), got.ContentionTable(0), want.LinkTable(0), want.ContentionTable(0))
	}
	if got.Links() != want.Links() {
		t.Fatalf("nodes %d: Links = %d, reference %d", nodes, got.Links(), want.Links())
	}
	for _, top := range []int{1, 16, got.Links() - 1} {
		if got.LinkTable(top) != want.LinkTable(top) || got.ContentionTable(top) != want.ContentionTable(top) {
			t.Fatalf("nodes %d: tables cut to %d differ\n got:\n%s%s\nwant:\n%s%s", nodes, top,
				got.LinkTable(top), got.ContentionTable(top), want.LinkTable(top), want.ContentionTable(top))
		}
	}
	for src := int32(-1); src <= int32(nodes); src++ {
		for dst := int32(-1); dst <= int32(nodes); dst++ {
			k := Link{Src: int(rename(src)), Dst: int(rename(dst))}
			if got.LinkCollisions(k) != want.LinkCollisions(k) || got.LinkDepth(k) != want.LinkDepth(k) {
				t.Fatalf("nodes %d: link %v collisions/depth = %d/%d, reference %d/%d", nodes, k,
					got.LinkCollisions(k), got.LinkDepth(k), want.LinkCollisions(k), want.LinkDepth(k))
			}
		}
	}
	return got.links.len()
}

// TestRegistryMatchesReference holds the slab registry to the three-map
// one over random scripts from the shared generator, which reach links
// with every mix of latency, collision and backoff records (a backoff
// at attempt 0 and a destination of -1 among them), one script in three
// with its ids renamed through edgeIDs.
func TestRegistryMatchesReference(t *testing.T) {
	registryMatchesReference(t, 4, nil, false)
	if links := registryMatchesReference(t, 64, everyNodeThreeLinks(64), true); links <= slabChunk {
		t.Fatalf("the registry holds %d links, not past its first chunk", links)
	}
	rng := sim.NewRNG(2203)
	for trial := 0; trial < 200; trial++ {
		nodes := 1 + rng.Intn(9)
		if trial%10 == 0 {
			nodes = 64
		}
		registryMatchesReference(t, nodes, randomScript(rng, 800, true), trial%3 == 0)
	}
}

// FuzzRegistryMatchesReference holds the registry to the three-map one
// over arbitrary emission scripts whose ids are -1, 0, 1, 255, 256,
// 2³¹-1 and a contiguous range from 6. The 64-node seeds' registries fill
// more than one 128-record chunk with links of equal counts (one delivery
// each, one collision or none), so every cut falls inside a tie; the
// second meets them highest node first, so each one outranks the rows a
// cut table has kept so far and is inserted at their front.
func FuzzRegistryMatchesReference(f *testing.F) {
	f.Add(uint8(5), []byte{})
	f.Add(uint8(7), slices.Concat(scriptEvent(2, KindDeliver, 1, 3, 4), scriptEvent(3, KindDeliver, 1, 2, 5),
		scriptEvent(4, KindCollision, 1, 5, 1), scriptEvent(5, KindBackoff, 1, 4, 3), scriptEvent(6, KindDeliver, 1, 2, 0x88)))
	ascending := everyNodeThreeLinks(64)
	var descending []byte
	for end := len(ascending); end > 0; end -= 3 * scriptBytes {
		descending = append(descending, ascending[end-3*scriptBytes:end]...)
	}
	f.Add(uint8(63), ascending)
	f.Add(uint8(63), descending)
	f.Add(uint8(9), randomScript(sim.NewRNG(29), 400, true))
	f.Fuzz(func(t *testing.T, nodes uint8, script []byte) {
		registryMatchesReference(t, int(nodes)%64+1, script, true)
	})
}

// everyNodeThreeLinks is a script in which each node records a collision,
// a backoff and a delivery, each toward a different destination: 3*nodes
// links.
func everyNodeThreeLinks(nodes int) []byte {
	var script []byte
	for node := 0; node < nodes; node++ {
		for i, kind := range []Kind{KindCollision, KindBackoff, KindDeliver} {
			script = append(script, scriptEvent(node, kind, 1, (node+i*nodes/3)%nodes, byte(node+i))...)
		}
	}
	return script
}
