package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"

	"fsoi/internal/sim"
)

// refWriteJSONL is the fmt-based JSONL encoder exactly as it stood before
// the append-based one replaced it. It lives here only as the reference
// the exports are compared with byte for byte.
func refWriteJSONL(w io.Writer, r *Recorder) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintf(w,
			`{"at":%d,"ev":%q,"id":%d,"src":%d,"dst":%d,"class":%q,"lane":%q,"attempt":%d,"aux":%d}`+"\n",
			int64(e.At), e.Kind.String(), e.ID, e.Src, e.Dst,
			ClassName(e.Class), LaneName(e.Lane), e.Attempt, e.Aux); err != nil {
			return err
		}
	}
	if r.Lost() > 0 {
		if _, err := fmt.Fprintf(w, `{"ev":"truncated","aux":%d}`+"\n", r.Lost()); err != nil {
			return err
		}
	}
	return nil
}

// refWriteChromeTrace is the fmt-based Chrome trace encoder, kept
// verbatim for the same purpose but for the "truncated" instant it now
// ends a truncated recording with.
func refWriteChromeTrace(w io.Writer, r *Recorder) error {
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	injectAt := make(map[uint64]int64)
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	for _, e := range r.Events() {
		switch e.Kind {
		case KindInject:
			injectAt[e.ID] = int64(e.At)
		case KindDeliver:
			start, ok := injectAt[e.ID]
			if !ok {
				start = int64(e.At)
			}
			delete(injectAt, e.ID)
			if err := emit(
				`{"name":"%s %d->%d","cat":"packet","ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d,"args":{"id":%d,"status":"delivered","retries":%d,"aux":%d}}`,
				ClassName(e.Class), e.Src, e.Dst, start, int64(e.At)-start,
				e.Src, e.ID, e.Attempt, e.Aux); err != nil {
				return err
			}
		case KindCollision, KindBackoff, KindConfirmDrop, KindFault:
			if err := emit(
				`{"name":%q,"cat":"event","ph":"i","ts":%d,"pid":0,"tid":%d,"s":"t","args":{"id":%d,"dst":%d,"lane":%q,"attempt":%d,"aux":%d}}`,
				e.Kind.String(), int64(e.At), e.Src, e.ID, e.Dst,
				LaneName(e.Lane), e.Attempt, e.Aux); err != nil {
				return err
			}
		}
	}
	if r.Lost() > 0 {
		var lastAt int64
		if events := r.Events(); len(events) > 0 {
			lastAt = int64(events[len(events)-1].At)
		}
		if err := emit(`{"name":"truncated","ph":"i","s":"g","ts":%d,"pid":0,"tid":0,"args":{"lost":%d}}`, lastAt, r.Lost()); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// exportsMatchReference encodes r both ways, both formats, and compares
// bytes.
func exportsMatchReference(t *testing.T, r *Recorder) {
	t.Helper()
	for _, enc := range []struct {
		name     string
		got, ref func(io.Writer, *Recorder) error
	}{
		{"JSONL", WriteJSONL, refWriteJSONL},
		{"Chrome trace", WriteChromeTrace, refWriteChromeTrace},
	} {
		var got, want bytes.Buffer
		if err := enc.got(&got, r); err != nil {
			t.Fatalf("%s: %v", enc.name, err)
		}
		if err := enc.ref(&want, r); err != nil {
			t.Fatalf("%s reference: %v", enc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s differs from the fmt reference\n got: %s\nwant: %s", enc.name, firstDiff(got.Bytes(), want.Bytes()), firstDiff(want.Bytes(), got.Bytes()))
		}
	}
}

// firstDiff returns a's bytes around the first position where a and b
// differ.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return fmt.Sprintf("@%d %q", i, a[max(0, i-60):min(len(a), i+60)])
}

func TestExportMatchesReference(t *testing.T) {
	full := func(kind Kind) Event {
		return Event{At: 7, ID: 9, Aux: 3, Src: 1, Dst: 2, Attempt: 1, Kind: kind, Class: ClassData, Lane: 1}
	}
	cases := map[string]struct {
		limit  int
		events []Event
	}{
		"empty":          {},
		"sample":         {events: sampleRecorder().Events()},
		"every kind":     {events: []Event{full(KindInject), full(KindTxStart), full(KindRetransmit), full(KindCollision), full(KindBackoff), full(KindConfirmDrop), full(KindDeliver), full(KindFault)}},
		"unknown kind":   {events: []Event{full(numKinds), full(Kind(200)), full(Kind(255))}},
		"negative nodes": {events: []Event{{Kind: KindDeliver, Src: -1, Dst: -7, Attempt: -3}, {Kind: KindCollision, Src: math.MinInt32, Dst: math.MaxInt32}}},
		"odd lane and class": {events: []Event{
			{Kind: KindBackoff, Lane: 2, Class: 2}, {Kind: KindBackoff, Lane: -2, Class: 255},
			{Kind: KindDeliver, Lane: math.MaxInt8, Class: 7}, {Kind: KindInject, Lane: math.MinInt8}}},
		"extreme aux and id": {events: []Event{
			{Kind: KindDeliver, ID: math.MaxUint64, Aux: math.MinInt64, At: math.MaxInt64},
			{Kind: KindFault, ID: math.MaxUint64, Aux: math.MaxInt64, Attempt: math.MinInt32}}},
		"deliver with no inject": {events: []Event{{At: 40, Kind: KindDeliver, ID: 5, Aux: 12}, {At: 41, Kind: KindDeliver, ID: 6}}},
		"inject reused after terminal": {events: []Event{
			{At: 1, Kind: KindInject, ID: 5}, {At: 9, Kind: KindDeliver, ID: 5}, {At: 12, Kind: KindDeliver, ID: 5}}},
		"only unexported kinds":         {events: []Event{full(KindInject), full(KindTxStart), full(KindRetransmit)}},
		"truncated":                     {limit: 2, events: []Event{full(KindInject), full(KindCollision), full(KindDeliver), full(KindBackoff)}},
		"truncated to nothing exported": {limit: 1, events: []Event{full(KindInject), full(KindDeliver)}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewRecorder(c.limit)
			for _, e := range c.events {
				r.Emit(e)
			}
			if c.limit > 0 && r.Lost() == 0 {
				t.Fatal("case must lose events")
			}
			exportsMatchReference(t, r)
		})
	}
}

// eventBytes is how many fuzz input bytes decode into one Event.
const eventBytes = 39

// decodeEvents reads arbitrary Events out of fuzz input: every field takes
// its bits straight from the data, so kinds, lanes, classes and node ids
// range over their whole types. Three events in four are then folded
// onto the known kinds and a four-packet id space, so that terminals meet
// (or miss) their injections often enough for the Chrome trace to pair
// them.
func decodeEvents(data []byte) []Event {
	var events []Event
	for ; len(data) >= eventBytes; data = data[eventBytes:] {
		e := Event{
			At:      sim.Cycle(binary.LittleEndian.Uint64(data[0:])),
			ID:      binary.LittleEndian.Uint64(data[8:]),
			Aux:     int64(binary.LittleEndian.Uint64(data[16:])),
			Src:     int32(binary.LittleEndian.Uint32(data[24:])),
			Dst:     int32(binary.LittleEndian.Uint32(data[28:])),
			Attempt: int32(binary.LittleEndian.Uint32(data[32:])),
			Kind:    Kind(data[36]),
			Class:   data[37],
			Lane:    int8(data[38]),
		}
		if len(events)%4 != 0 {
			e.Kind %= numKinds
			e.ID %= 4
		}
		events = append(events, e)
	}
	return events
}

// encodeEvents inverts decodeEvents for the seed corpus.
func encodeEvents(events []Event) []byte {
	var out []byte
	for _, e := range events {
		var b [eventBytes]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(e.At))
		binary.LittleEndian.PutUint64(b[8:], e.ID)
		binary.LittleEndian.PutUint64(b[16:], uint64(e.Aux))
		binary.LittleEndian.PutUint32(b[24:], uint32(e.Src))
		binary.LittleEndian.PutUint32(b[28:], uint32(e.Dst))
		binary.LittleEndian.PutUint32(b[32:], uint32(e.Attempt))
		b[36], b[37], b[38] = byte(e.Kind), e.Class, byte(e.Lane)
		out = append(out, b[:]...)
	}
	return out
}

// FuzzExportMatchesReference holds both append-based encoders to the fmt
// reference over arbitrary event fields and recorder limits.
func FuzzExportMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), encodeEvents(sampleRecorder().Events()))
	f.Add(uint8(3), encodeEvents(sampleRecorder().Events()))
	f.Add(uint8(0), encodeEvents([]Event{
		{At: 1, Kind: Kind(200), Src: -1, Dst: -1, Lane: 9, Class: 9, ID: math.MaxUint64, Aux: math.MinInt64},
		{At: 2, Kind: KindDeliver, ID: 1, Aux: math.MaxInt64},
		{At: 3, Kind: KindCollision, Lane: -128, Attempt: -1},
	}))
	f.Add(uint8(0), encodeEvents(digitEdges()))
	f.Fuzz(func(t *testing.T, limit uint8, data []byte) {
		r := NewRecorder(int(limit))
		for _, e := range decodeEvents(data) {
			r.Emit(e)
		}
		exportsMatchReference(t, r)
	})
}

// digitEdges puts every integer field of an event on each side of the
// decimal appender's length steps (9/10, 99/100, 9999/10000,
// 99999999/100000000) and on the ends of its type, negated too, in the
// kinds both exports write: a deliver that keeps its id (decodeEvents
// keeps the id of every fourth event only), a collision instant and an
// inject/deliver pair whose span lasts the value's cycles.
func digitEdges() []Event {
	clamp := func(v int64) int32 { return int32(min(max(v, math.MinInt32), math.MaxInt32)) }
	var events []Event
	for _, v := range []int64{9, 10, 99, 100, 9999, 10000, 99999999, 100000000, math.MaxInt64, math.MinInt64} {
		events = append(events,
			Event{Kind: KindDeliver, At: sim.Cycle(v), ID: uint64(v), Aux: v, Src: clamp(v), Dst: clamp(v), Attempt: clamp(v)},
			Event{Kind: KindCollision, At: sim.Cycle(v), Aux: -v, Src: clamp(-v), Dst: clamp(-v), Attempt: clamp(-v)},
			Event{Kind: KindInject, At: sim.Cycle(-v), ID: 1},
			Event{Kind: KindDeliver, At: sim.Cycle(v), ID: 1, Aux: v})
	}
	return append(events, Event{Kind: KindDeliver, ID: math.MaxUint64, At: math.MaxInt64, Aux: math.MaxInt64})
}

// manyEvents records n events of the mix a run produces (the bench
// driver's inject / tx-start / deliver triple plus a collision).
func manyEvents(n int) *Recorder {
	r := NewRecorder(0)
	for i := 0; r.Len() < n; i++ {
		at, id := sim.Cycle(4*i), uint64(i)
		src, dst := int32(i&63), int32((i+7)&63)
		r.Emit(Event{At: at, ID: id, Kind: KindInject, Src: src, Dst: dst, Lane: LaneNone})
		r.Emit(Event{At: at + 1, ID: id, Kind: KindTxStart, Src: src, Dst: dst})
		r.Emit(Event{At: at + 2, ID: id, Kind: KindCollision, Src: src, Dst: dst, Aux: 1})
		r.Emit(Event{At: at + 3, ID: id, Kind: KindDeliver, Aux: 9, Src: src, Dst: dst, Lane: LaneNone})
	}
	return r
}

// failAfter accepts n bytes, then fails every Write.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestExportSurfacesWriteError: buffering must not swallow a failing
// writer, whether it fails on the first flush, on a later one, or only on
// the final partial buffer.
func TestExportSurfacesWriteError(t *testing.T) {
	r := manyEvents(4000)
	var size bytes.Buffer
	if err := WriteJSONL(&size, r); err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("disk full")
	for _, enc := range []func(io.Writer, *Recorder) error{WriteJSONL, WriteChromeTrace} {
		for _, accept := range []int{0, blockBytes + 600, size.Len() / 2} {
			if err := enc(&failAfter{n: accept, err: errDisk}, r); !errors.Is(err, errDisk) {
				t.Fatalf("writer failing after %d bytes: err = %v, want %v", accept, err, errDisk)
			}
		}
	}
	small := sampleRecorder() // fits one buffer: the error comes from the final flush
	for _, enc := range []func(io.Writer, *Recorder) error{WriteJSONL, WriteChromeTrace} {
		if err := enc(&failAfter{err: errDisk}, small); !errors.Is(err, errDisk) {
			t.Fatalf("final flush: err = %v, want %v", err, errDisk)
		}
	}
}

// countingWriter counts Write calls and bytes.
type countingWriter struct{ calls, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	w.bytes += len(p)
	return len(p), nil
}

// TestExportWritesInBlocks: the writer sees one call per ~32 KB, not one
// per event, which is what spares a bare *os.File a system call each.
func TestExportWritesInBlocks(t *testing.T) {
	r := manyEvents(20000)
	for _, enc := range []func(io.Writer, *Recorder) error{WriteJSONL, WriteChromeTrace} {
		var w countingWriter
		if err := enc(&w, r); err != nil {
			t.Fatal(err)
		}
		if most := w.bytes/(blockBytes-maxRecord) + 1; w.calls > most || w.bytes < 10*blockBytes {
			t.Fatalf("%d Write calls for %d bytes, want at most %d", w.calls, w.bytes, most)
		}
	}
}

// TestWriteJSONLAllocsIndependentOfEvents: the encoder allocates its
// buffer and nothing per event.
func TestWriteJSONLAllocsIndependentOfEvents(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int{1000, 100000} {
		r := manyEvents(n)
		allocs[i] = testing.AllocsPerRun(5, func() {
			if err := WriteJSONL(io.Discard, r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] || allocs[0] > 4 {
		t.Fatalf("WriteJSONL allocations: %v at 1k events, %v at 100k; want equal and at most 4", allocs[0], allocs[1])
	}
}

// TestAppendIntMatchesStrconv holds the decimal appender to strconv on
// each side of every power of ten an int64 or uint64 holds, negated too,
// and on the ends of both types.
func TestAppendIntMatchesStrconv(t *testing.T) {
	values := []uint64{0, math.MaxInt64, 1 << 63, math.MaxUint64}
	for p := uint64(1); p <= math.MaxUint64/10; p *= 10 {
		values = append(values, p-1, p, p+1, 10*p-1, 10*p)
	}
	for _, u := range values {
		if got, want := string(appendUint([]byte("x"), u)), strconv.AppendUint([]byte("x"), u, 10); got != string(want) {
			t.Fatalf("appendUint(%d) = %q, want %q", u, got, want)
		}
		for _, v := range []int64{int64(u), -int64(u)} {
			if got, want := string(appendInt([]byte("x"), v)), strconv.AppendInt([]byte("x"), v, 10); got != string(want) {
				t.Fatalf("appendInt(%d) = %q, want %q", v, got, want)
			}
		}
	}
}

// BenchmarkAppendInt prices the decimal appender against strconv on the
// integer fields of every tenth event of a run-sized log: cycles up to
// 70,000, packet ids up to 17,500, nodes, attempts and latencies.
func BenchmarkAppendInt(b *testing.B) {
	var values []int64
	events := manyEvents(70000).Events()
	for i := 0; i < len(events); i += 10 {
		e := events[i]
		values = append(values, int64(e.At), int64(e.ID), int64(e.Src), int64(e.Dst), int64(e.Attempt), e.Aux)
	}
	buf := make([]byte, 0, 32<<10)
	for _, enc := range []struct {
		name   string
		append func([]byte, int64) []byte
	}{
		{"appendInt", appendInt},
		{"strconv", func(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			for b.Loop() {
				buf = buf[:0]
				for _, v := range values {
					buf = enc.append(buf, v)
				}
			}
		})
	}
}
