package obs

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fsoi/internal/sim"
)

func TestRecorderNilIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Len() != 0 || r.Lost() != 0 || r.Events() != nil {
		t.Fatal("nil recorder must report empty")
	}
	counts := r.CountByKind()
	for _, c := range counts {
		if c != 0 {
			t.Fatal("nil recorder must count nothing")
		}
	}
}

func TestRecorderLimitCountsLost(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Emit(Event{At: 1, Kind: KindInject, ID: uint64(i)})
	}
	if r.Len() != 2 || r.Lost() != 3 {
		t.Fatalf("len=%d lost=%d, want 2/3", r.Len(), r.Lost())
	}
}

func sampleRecorder() *Recorder {
	r := NewRecorder(0)
	r.Emit(Event{At: 1, Kind: KindInject, ID: 1, Src: 0, Dst: 2, Class: ClassMeta, Lane: LaneNone})
	r.Emit(Event{At: 2, Kind: KindTxStart, ID: 1, Src: 0, Dst: 2, Class: ClassMeta, Lane: 0})
	r.Emit(Event{At: 3, Kind: KindInject, ID: 2, Src: 1, Dst: 3, Class: ClassData, Lane: LaneNone})
	r.Emit(Event{At: 4, Kind: KindCollision, ID: 1, Src: 0, Dst: 2, Class: ClassMeta, Lane: 0, Aux: 1})
	r.Emit(Event{At: 4, Kind: KindBackoff, ID: 1, Src: 0, Dst: 2, Attempt: 1, Class: ClassMeta, Lane: 0, Aux: 3})
	r.Emit(Event{At: 8, Kind: KindRetransmit, ID: 1, Src: 0, Dst: 2, Attempt: 1, Class: ClassMeta, Lane: 0})
	r.Emit(Event{At: 12, Kind: KindDeliver, ID: 1, Src: 0, Dst: 2, Attempt: 1, Class: ClassMeta, Lane: LaneNone, Aux: 11})
	r.Emit(Event{At: 20, Kind: KindDeliver, ID: 2, Src: 1, Dst: 3, Attempt: 4, Class: ClassData, Lane: LaneNone, Aux: 17})
	return r
}

// TestWriteJSONLStable: the hand-rolled encoder emits one fixed-order
// object per line, sorted by cycle, and two identical recordings yield
// byte-identical files.
func TestWriteJSONLStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical recordings must serialize to identical bytes")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("lines = %d, want 8", len(lines))
	}
	want := `{"at":1,"ev":"inject","id":1,"src":0,"dst":2,"class":"meta","lane":"-","attempt":0,"aux":0}`
	if lines[0] != want {
		t.Fatalf("first line:\n got %s\nwant %s", lines[0], want)
	}
	if !strings.Contains(a.String(), `{"at":20,"ev":"deliver","id":2,`) {
		t.Fatal("data packet's delivery missing from JSONL")
	}
	for i := 1; i < len(lines); i++ {
		if strings.Compare(lines[i-1][len(`{"at":`):], "") == 0 {
			t.Fatal("malformed line")
		}
	}
}

func TestWriteJSONLTruncationMarker(t *testing.T) {
	r := NewRecorder(1)
	r.Emit(Event{At: 1, Kind: KindInject, ID: 1})
	r.Emit(Event{At: 2, Kind: KindDeliver, ID: 1})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `{"ev":"truncated","aux":1}`) {
		t.Fatalf("truncated recording must end with an explicit marker:\n%s", buf.String())
	}
}

// TestWriteChromeTraceTruncationMarker: a truncated recording's trace ends
// with a global "truncated" instant at the last cycle held, counting what
// was lost, after the records and behind a comma only when one precedes
// it; a complete recording has none.
func TestWriteChromeTraceTruncationMarker(t *testing.T) {
	for _, c := range []struct {
		limit int
		want  string
	}{
		{1, `{"traceEvents":[{"name":"truncated","ph":"i","s":"g","ts":1,"pid":0,"tid":0,"args":{"lost":2}}]}` + "\n"},
		{2, `,{"name":"truncated","ph":"i","s":"g","ts":5,"pid":0,"tid":0,"args":{"lost":1}}]}` + "\n"},
		{3, `"aux":0}}]}` + "\n"},
	} {
		r := NewRecorder(c.limit)
		r.Emit(Event{At: 1, Kind: KindInject, ID: 1})
		r.Emit(Event{At: 5, Kind: KindDeliver, ID: 1})
		r.Emit(Event{At: 9, Kind: KindCollision, ID: 2})
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, r); err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(buf.String(), c.want) || strings.Contains(buf.String(), "truncated") != (r.Lost() > 0) {
			t.Fatalf("limit %d, %d lost: trace ends\n%s\nwant it to end\n%s", c.limit, r.Lost(), buf.String(), c.want)
		}
	}
}

// TestWriteChromeTrace pairs injections with deliveries into "X" spans
// and renders mid-life events as instants.
func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, `{"traceEvents":[`) || !strings.HasSuffix(out, "]}\n") {
		t.Fatalf("not a trace-event envelope: %s", out)
	}
	if !strings.Contains(out, `"name":"meta 0->2","cat":"packet","ph":"X","ts":1,"dur":11`) {
		t.Fatalf("delivered span missing or mispaired:\n%s", out)
	}
	if !strings.Contains(out, `"name":"data 1->3","cat":"packet","ph":"X","ts":3,"dur":17`) {
		t.Fatalf("data span missing or mispaired:\n%s", out)
	}
	if !strings.Contains(out, `"ph":"i"`) {
		t.Fatal("instant events missing")
	}
	var again bytes.Buffer
	if err := WriteChromeTrace(&again, sampleRecorder()); err != nil {
		t.Fatal(err)
	}
	if out != again.String() {
		t.Fatal("chrome trace must be byte-stable across identical recordings")
	}
}

func TestCountByKind(t *testing.T) {
	counts := sampleRecorder().CountByKind()
	if counts[KindInject] != 2 || counts[KindDeliver] != 2 {
		t.Fatalf("counts wrong: %v", counts)
	}
}

func TestRegistryPercentiles(t *testing.T) {
	g := NewRegistry()
	for i := 0; i < 99; i++ {
		g.Observe(ClassMeta, 0, 1, 10)
	}
	g.Observe(ClassMeta, 0, 1, 5000) // overflow: beyond the 2000-cycle table
	g.Observe(ClassData, 2, 3, 42)
	if g.Links() != 2 {
		t.Fatalf("links = %d, want 2", g.Links())
	}
	table := g.ClassTable()
	if !strings.Contains(table, "meta") || !strings.Contains(table, "data") {
		t.Fatalf("class table missing rows:\n%s", table)
	}
	// p50 of the meta stream: latency 10 falls in the [10,15) bucket, so
	// the reported bound is 15.
	if p, over := g.Class(ClassMeta).PercentileBound(0.5); p != 15 || over {
		t.Fatalf("meta p50 = (%d, %v), want (15, false)", p, over)
	}
	// p999 lands on the overflow observation and must render as ">2000".
	if !strings.Contains(table, ">2000") {
		t.Fatalf("overflow percentile must render with a > prefix:\n%s", table)
	}
	links := g.LinkTable(0)
	if !strings.Contains(links, "0->1") || !strings.Contains(links, "2->3") {
		t.Fatalf("link table missing links:\n%s", links)
	}
}

func TestRegistryLinkTableTruncationAnnounced(t *testing.T) {
	g := NewRegistry()
	for src := 0; src < 8; src++ {
		g.Observe(ClassMeta, src, src+1, int64(10*src+5))
	}
	out := g.LinkTable(3)
	if !strings.Contains(out, "(5 quieter links omitted)") {
		t.Fatalf("truncation must be announced:\n%s", out)
	}
}

// tableLinks returns the link column of a rendered table, in row order.
func tableLinks(table string) []string {
	var links []string
	for _, row := range strings.Split(table, "\n") {
		if f := strings.Fields(row); len(f) > 0 && strings.Contains(f[0], "->") {
			links = append(links, f[0])
		}
	}
	return links
}

// TestRegistryTablesRankWithTies: heaviest first, and equal weights fall
// back to (src, dst) order whatever order the links were observed in;
// the cut keeps the head of that order.
func TestRegistryTablesRankWithTies(t *testing.T) {
	g := NewRegistry()
	for _, l := range []struct{ src, dst, n int }{
		{9, 1, 2}, {3, 4, 2}, {3, 2, 2}, {0, 7, 1}, {10, 0, 3}, {2, 9, 2}, {0, 1, 1},
	} {
		for i := 0; i < l.n; i++ {
			g.Observe(ClassMeta, l.src, l.dst, 10)
		}
	}
	want := []string{"10->0", "2->9", "3->2", "3->4", "9->1", "0->1", "0->7"}
	if got := tableLinks(g.LinkTable(0)); !slices.Equal(got, want) {
		t.Fatalf("link table order = %v, want %v", got, want)
	}
	out := g.LinkTable(4)
	if got := tableLinks(out); !slices.Equal(got, want[:4]) || !strings.Contains(out, "(3 quieter links omitted)") {
		t.Fatalf("cut link table = %v, want %v and 3 omitted:\n%s", got, want[:4], out)
	}

	// Contention: collisions rank, a link with only a backoff record
	// counts as zero collisions and still appears.
	for _, l := range []struct{ src, dst, n int }{{5, 6, 2}, {1, 2, 2}, {7, 0, 4}, {1, 1, 1}} {
		for i := 0; i < l.n; i++ {
			g.noteCollision(l.src, l.dst)
		}
	}
	g.noteBackoff(8, 3, 5)
	g.noteBackoff(0, 3, 2)
	g.noteBackoff(1, 2, 3)
	want = []string{"7->0", "1->2", "5->6", "1->1", "0->3", "8->3"}
	out = g.ContentionTable(0)
	if got := tableLinks(out); !slices.Equal(got, want) {
		t.Fatalf("contention table order = %v, want %v", got, want)
	}
	if row := strings.Fields(strings.Split(out, "\n")[3]); !slices.Equal(row, []string{"1->2", "2", "3"}) {
		t.Fatalf("contention row = %v, want [1->2 2 3]", row)
	}
	out = g.ContentionTable(5)
	if got := tableLinks(out); !slices.Equal(got, want[:5]) || !strings.Contains(out, "(1 quieter links omitted)") {
		t.Fatalf("cut contention table = %v, want %v and 1 omitted:\n%s", got, want[:5], out)
	}

	// Every cut keeps the full sort's head. Forty links in scrambled order
	// with three weights, so ties straddle every cut, and (src, dst) order
	// disagrees with (dst, src).
	type weighted struct{ src, dst, n int }
	var links []weighted
	g = NewRegistry()
	for rng := sim.NewRNG(29); len(links) < 40; {
		l := weighted{rng.Intn(12), rng.Intn(12), 1 + rng.Intn(3)}
		if slices.ContainsFunc(links, func(m weighted) bool { return m.src == l.src && m.dst == l.dst }) {
			continue
		}
		links = append(links, l)
		for i := 0; i < l.n; i++ {
			g.Observe(ClassMeta, l.src, l.dst, 10)
			g.noteCollision(l.src, l.dst)
		}
	}
	slices.SortFunc(links, func(a, b weighted) int {
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
	})
	var sorted []string
	for _, l := range links {
		sorted = append(sorted, fmt.Sprintf("%d->%d", l.src, l.dst))
	}
	for _, top := range []int{1, 16, len(links) - 1, len(links), 0} {
		want, note := sorted, ""
		if top > 0 && top < len(sorted) {
			want, note = sorted[:top], fmt.Sprintf("(%d quieter links omitted)\n", len(sorted)-top)
		}
		for _, out := range []string{g.LinkTable(top), g.ContentionTable(top)} {
			if got := tableLinks(out); !slices.Equal(got, want) || !strings.HasSuffix(out, note) || note == "" && strings.Contains(out, "omitted") {
				t.Fatalf("top %d: rows %v, want %v and note %q:\n%s", top, got, want, note, out)
			}
		}
	}
}

// TestLinkSlabChunks: a record stays where it was added as chunks are
// added, and is found by its key, over ids across the whole int32 range;
// the dense square stops at denseIDs on a side and the table holds the
// rest.
func TestLinkSlabChunks(t *testing.T) {
	ids := []int32{0, 1, 15, 16, 63, 254, 255, 256, 257, -1, math.MinInt32, math.MaxInt32}
	var s linkSlab[int]
	var recs []*int
	for _, src := range ids {
		for _, dst := range ids {
			r, fresh := s.at(linkKey(src, dst))
			if !fresh {
				t.Fatalf("%d->%d: not fresh on first sight", src, dst)
			}
			*r = len(recs)
			recs = append(recs, r)
		}
	}
	if s.len() != len(ids)*len(ids) || s.len() <= slabChunk {
		t.Fatalf("%d links held, want %d, past one chunk", s.len(), len(ids)*len(ids))
	}
	for i, src := range ids {
		for j, dst := range ids {
			pos := i*len(ids) + j
			key := linkKey(src, dst)
			if r, fresh := s.at(key); fresh || r != recs[pos] || *r != pos || s.find(key) != r || s.rec(pos) != r {
				t.Fatalf("%d->%d: record moved or lost", src, dst)
			}
		}
	}
	sparse := 0
	for _, src := range ids {
		for _, dst := range ids {
			if src < 0 || src >= denseIDs || dst < 0 || dst >= denseIDs {
				sparse++
			}
		}
	}
	if s.side != denseIDs || s.sparse.Len() != sparse {
		t.Fatalf("dense side %d, %d links in the table; want %d and %d", s.side, s.sparse.Len(), denseIDs, sparse)
	}
	for _, l := range [][2]int32{{2, 3}, {255, 2}, {258, 0}, {0, -2}} {
		if s.find(linkKey(l[0], l[1])) != nil {
			t.Fatalf("%d->%d found, never added", l[0], l[1])
		}
	}
}

// TestRegistryObserveSeenLinkAllocatesNothing: once a link is held,
// Observe on it allocates nothing while its histograms need not grow (the
// overflow bucket never grows).
func TestRegistryObserveSeenLinkAllocatesNothing(t *testing.T) {
	ids := []int{0, 1, 63, 255, 256, -1, math.MaxInt32}
	g := NewRegistry()
	for _, src := range ids {
		for _, dst := range ids {
			g.Observe(ClassMeta, src, dst, 500)
			g.Observe(ClassData, src, dst, 500)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		g.Observe(uint8(i&1), ids[i%len(ids)], ids[i/len(ids)%len(ids)], int64(i*37%505+i%2*3000))
		i++
	}); n != 0 {
		t.Fatalf("Observe on seen links allocated %v times a call", n)
	}
}

func TestKindNamesStable(t *testing.T) {
	want := map[Kind]string{
		KindInject: "inject", KindTxStart: "tx-start", KindRetransmit: "retransmit",
		KindCollision: "collision", KindBackoff: "backoff", KindConfirmDrop: "confirm-drop",
		KindDeliver: "deliver", KindFault: "fault",
	}
	for k, name := range want {
		if k.String() != name {
			t.Fatalf("Kind(%d).String() = %q, want %q (on-wire name is frozen)", k, k.String(), name)
		}
	}
	if ClassName(ClassMeta) != "meta" || ClassName(ClassData) != "data" {
		t.Fatal("class names are frozen")
	}
	if LaneName(LaneNone) != "-" || LaneName(0) != "meta" || LaneName(1) != "data" {
		t.Fatal("lane names are frozen")
	}
}
