package obs

import (
	"bufio"
	"io"
	"strconv"

	"fsoi/internal/sim"
	"fsoi/internal/table"
)

// An export writes through a bufio.Writer of blockBytes and appends each
// record straight into its free space (AvailableBuffer), precomputed
// fragments and strconv's digits alike, so it allocates that buffer and
// nothing per event, and the destination sees one Write per block instead
// of one per event: for a bare *os.File, one system call instead of
// thousands. Field order is fixed by the order of the appends, so two
// identical runs produce byte-identical files at any worker count.
const (
	blockBytes = 32 << 10
	// maxRecord is longer than any one record (every field is a bounded
	// integer or one of a closed set of names). A block is flushed once
	// less than this is free, so a record never outgrows the free space
	// and spills into an allocation.
	maxRecord = 512
)

// makeRoom flushes the block when the next record might not fit. A write
// error is sticky in bw, so this is also where a failing destination
// stops an export early.
func makeRoom(bw *bufio.Writer) error {
	if bw.Available() < maxRecord {
		return bw.Flush()
	}
	return nil
}

// Every class and lane value has one of the names in classNames and
// laneNames, and every known kind one name, so the text around them is
// precomputed: a record appends a fragment per name instead of building
// it from pieces. Kinds outside the known set are quoted as fmt's %q
// quotes them.
var (
	// jsonlKind[k] is `,"ev":"<kind>","id":`.
	jsonlKind = kindFragments(`,"ev":`, `,"id":`)
	// jsonlClassLane[c][l] is `,"class":"<class>","lane":"<lane>","attempt":`.
	jsonlClassLane = func() (f [len(classNames)][len(laneNames)]string) {
		for c, class := range classNames {
			for l, lane := range laneNames {
				f[c][l] = `,"class":"` + class + `","lane":"` + lane + `","attempt":`
			}
		}
		return f
	}()
	// instantHead[k] opens a Chrome instant: `{"name":"<kind>",...,"ts":`.
	instantHead = kindFragments(`{"name":`, `,"cat":"event","ph":"i","ts":`)
	// instantLane[l] is `,"lane":"<lane>","attempt":`.
	instantLane = func() (f [len(laneNames)]string) {
		for l, lane := range laneNames {
			f[l] = `,"lane":"` + lane + `","attempt":`
		}
		return f
	}()
	// spanHead[c] opens a Chrome span: `{"name":"<class> `.
	spanHead = func() (f [len(classNames)]string) {
		for c, class := range classNames {
			f[c] = `{"name":"` + class + ` `
		}
		return f
	}()
)

// kindFragments puts each known kind's quoted name between before and
// after.
func kindFragments(before, after string) (f [numKinds]string) {
	for k := range f {
		f[k] = before + strconv.Quote(Kind(k).String()) + after
	}
	return f
}

// WriteJSONL writes the recorder's events as JSON Lines, one event per
// line, in the order they were recorded. A truncated recording ends with
// an explicit marker line instead of silently looking complete.
func WriteJSONL(w io.Writer, r *Recorder) error {
	bw := bufio.NewWriterSize(w, blockBytes)
	for evs := r.run(); len(evs.cur) > 0; evs.advance() {
		for _, ev := range evs.cur {
			if err := makeRoom(bw); err != nil {
				return err
			}
			bw.Write(appendJSONL(bw.AvailableBuffer(), ev)) // Flush reports the error
		}
	}
	if r.Lost() > 0 {
		b := append(bw.AvailableBuffer(), `{"ev":"truncated","aux":`...)
		b = strconv.AppendInt(b, r.Lost(), 10)
		bw.Write(append(b, "}\n"...))
	}
	return bw.Flush()
}

// appendJSONL appends one event's line.
func appendJSONL(b []byte, ev Event) []byte {
	b = append(b, `{"at":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	if ev.Kind < numKinds {
		b = append(b, jsonlKind[ev.Kind]...)
	} else {
		b = append(b, `,"ev":`...)
		b = strconv.AppendQuote(b, ev.Kind.String())
		b = append(b, `,"id":`...)
	}
	b = strconv.AppendUint(b, ev.ID, 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(ev.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(ev.Dst), 10)
	b = append(b, jsonlClassLane[classSlot(ev.Class)][laneSlot(ev.Lane)]...)
	b = strconv.AppendInt(b, int64(ev.Attempt), 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, ev.Aux, 10)
	return append(b, "}\n"...)
}

// WriteChromeTrace writes the events in Chrome trace-event JSON (open in
// chrome://tracing or Perfetto). Delivered packets become complete ("X")
// spans from injection to delivery on their source node's track;
// collisions, backoffs, confirmation drops and faults become instant
// ("i") events. Timestamps are simulated cycles, not microseconds: the
// viewer's time axis reads directly in cycles. A truncated recording ends
// with a global "truncated" instant at the last cycle held, its args
// counting the events lost.
func WriteChromeTrace(w io.Writer, r *Recorder) error {
	bw := bufio.NewWriterSize(w, blockBytes)
	bw.WriteString(`{"traceEvents":[`)
	// injectAt pairs each packet's injection with its delivery, by packet
	// id.
	var injectAt table.Table[int64]
	sep := "" // a comma before every record but the first
	var lastAt sim.Cycle
	for evs := r.run(); len(evs.cur) > 0; evs.advance() {
		lastAt = evs.cur[len(evs.cur)-1].At
		for _, ev := range evs.cur {
			if err := makeRoom(bw); err != nil {
				return err
			}
			b := append(bw.AvailableBuffer(), sep...)
			switch ev.Kind {
			case KindInject:
				*injectAt.Put(ev.ID) = int64(ev.At)
				continue
			case KindDeliver:
				start := int64(ev.At)
				if at := injectAt.Ref(ev.ID); at != nil {
					start = *at
					injectAt.Delete(ev.ID)
				}
				b = appendSpan(b, ev, start)
			case KindCollision, KindBackoff, KindConfirmDrop, KindFault:
				b = appendInstant(b, ev)
			default:
				continue
			}
			bw.Write(b) // Flush reports the error
			sep = ","
		}
	}
	if r.Lost() > 0 {
		if err := makeRoom(bw); err != nil {
			return err
		}
		b := append(bw.AvailableBuffer(), sep...)
		b = append(b, `{"name":"truncated","ph":"i","s":"g","ts":`...)
		b = strconv.AppendInt(b, int64(lastAt), 10)
		b = append(b, `,"pid":0,"tid":0,"args":{"lost":`...)
		b = strconv.AppendInt(b, r.Lost(), 10)
		bw.Write(append(b, "}}"...))
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// appendSpan appends the complete ("X") span of a packet injected at
// start and delivered by ev.
func appendSpan(b []byte, ev Event, start int64) []byte {
	b = append(b, spanHead[classSlot(ev.Class)]...)
	b = strconv.AppendInt(b, int64(ev.Src), 10)
	b = append(b, "->"...)
	b = strconv.AppendInt(b, int64(ev.Dst), 10)
	b = append(b, `","cat":"packet","ph":"X","ts":`...)
	b = strconv.AppendInt(b, start, 10)
	b = append(b, `,"dur":`...)
	b = strconv.AppendInt(b, int64(ev.At)-start, 10)
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Src), 10)
	b = append(b, `,"args":{"id":`...)
	b = strconv.AppendUint(b, ev.ID, 10)
	b = append(b, `,"status":"delivered","retries":`...)
	b = strconv.AppendInt(b, int64(ev.Attempt), 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, ev.Aux, 10)
	return append(b, "}}"...)
}

// appendInstant appends the instant ("i") event of a mid-life event,
// whose kind is a known one.
func appendInstant(b []byte, ev Event) []byte {
	b = append(b, instantHead[ev.Kind]...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Src), 10)
	b = append(b, `,"s":"t","args":{"id":`...)
	b = strconv.AppendUint(b, ev.ID, 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(ev.Dst), 10)
	b = append(b, instantLane[laneSlot(ev.Lane)]...)
	b = strconv.AppendInt(b, int64(ev.Attempt), 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, ev.Aux, 10)
	return append(b, "}}"...)
}
