package obs

import (
	"bufio"
	"io"
	"strconv"

	"fsoi/internal/table"
)

// An export writes through a bufio.Writer of blockBytes and appends each
// record straight into its free space (AvailableBuffer) with strconv, so
// it allocates that buffer and nothing per event, and the destination
// sees one Write per block instead of one per event: for a bare *os.File,
// one system call instead of thousands. Field order is fixed by the order
// of the appends, so two identical runs produce byte-identical files at
// any worker count.
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

// quotedKind holds the JSON string literal of every known kind name.
var quotedKind = func() (q [numKinds]string) {
	for k := range q {
		q[k] = strconv.Quote(Kind(k).String())
	}
	return q
}()

// appendKind appends a kind name as a JSON string. Unknown kinds take
// the general quoting path (the one fmt's %q uses).
func appendKind(b []byte, k Kind) []byte {
	if k < numKinds {
		return append(b, quotedKind[k]...)
	}
	return strconv.AppendQuote(b, k.String())
}

// appendName appends a class or lane name as a JSON string. ClassName and
// LaneName return one of three literals, none of which needs escaping.
func appendName(b []byte, name string) []byte {
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"')
}

// WriteJSONL writes the recorder's events as JSON Lines, one event per
// line, sorted by cycle. A truncated recording ends with an explicit
// marker line instead of silently looking complete.
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
	b = append(b, `,"ev":`...)
	b = appendKind(b, ev.Kind)
	b = append(b, `,"id":`...)
	b = strconv.AppendUint(b, ev.ID, 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(ev.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(ev.Dst), 10)
	b = append(b, `,"class":`...)
	b = appendName(b, ClassName(ev.Class))
	b = append(b, `,"lane":`...)
	b = appendName(b, LaneName(ev.Lane))
	b = append(b, `,"attempt":`...)
	b = strconv.AppendInt(b, int64(ev.Attempt), 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, ev.Aux, 10)
	return append(b, "}\n"...)
}

// WriteChromeTrace writes the events in Chrome trace-event JSON (open in
// chrome://tracing or Perfetto). Delivered packets become complete ("X")
// spans from injection to delivery on their source node's track;
// collisions, backoffs, confirmation drops, and terminal drops become
// instant ("i") events. Timestamps are simulated cycles, not
// microseconds: the viewer's time axis reads directly in cycles.
func WriteChromeTrace(w io.Writer, r *Recorder) error {
	bw := bufio.NewWriterSize(w, blockBytes)
	bw.WriteString(`{"traceEvents":[`)
	// injectAt pairs each packet's injection with its terminal event, by
	// packet id.
	var injectAt table.Table[int64]
	sep := "" // a comma before every record but the first
	for evs := r.run(); len(evs.cur) > 0; evs.advance() {
		for _, ev := range evs.cur {
			if err := makeRoom(bw); err != nil {
				return err
			}
			b := append(bw.AvailableBuffer(), sep...)
			switch ev.Kind {
			case KindInject:
				*injectAt.Put(ev.ID) = int64(ev.At)
				continue
			case KindDeliver, KindDrop:
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
	bw.WriteString("]}\n")
	return bw.Flush()
}

// appendSpan appends the complete ("X") span of a packet injected at
// start whose terminal event (deliver or drop) is ev.
func appendSpan(b []byte, ev Event, start int64) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, ClassName(ev.Class)...)
	b = append(b, ' ')
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
	if ev.Kind == KindDrop {
		b = append(b, `,"status":"dropped","retries":`...)
	} else {
		b = append(b, `,"status":"delivered","retries":`...)
	}
	b = strconv.AppendInt(b, int64(ev.Attempt), 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, ev.Aux, 10)
	return append(b, "}}"...)
}

// appendInstant appends the instant ("i") event of a mid-life event.
func appendInstant(b []byte, ev Event) []byte {
	b = append(b, `{"name":`...)
	b = appendKind(b, ev.Kind)
	b = append(b, `,"cat":"event","ph":"i","ts":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Src), 10)
	b = append(b, `,"s":"t","args":{"id":`...)
	b = strconv.AppendUint(b, ev.ID, 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(ev.Dst), 10)
	b = append(b, `,"lane":`...)
	b = appendName(b, LaneName(ev.Lane))
	b = append(b, `,"attempt":`...)
	b = strconv.AppendInt(b, int64(ev.Attempt), 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, ev.Aux, 10)
	return append(b, "}}"...)
}
