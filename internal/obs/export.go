package obs

import (
	"io"
	"slices"
	"strconv"

	"fsoi/internal/sim"
	"fsoi/internal/table"
)

// An export appends each record into a block of blockBytes it owns,
// precomputed fragments and digits alike, and writes the block out whole
// once less than maxRecord of it is free: it allocates the block and
// nothing per event, and the destination sees one Write per block instead
// of one per event: for a bare *os.File, one system call instead of
// thousands. Field order is fixed by the order of the appends, so two
// identical runs produce byte-identical files at any worker count.
const (
	blockBytes = 32 << 10
	// maxRecord is longer than any one record (every field is a bounded
	// integer or one of a closed set of names) and the fragment bytes an
	// append may put down past its end. A block is written once less
	// than this is free, so a record never outgrows the free space and
	// spills into an allocation.
	maxRecord = 512
)

// spill writes the block b out when the next record might not fit, and
// returns what to append to: b itself, or b emptied.
func spill(w io.Writer, b []byte) ([]byte, error) {
	if cap(b)-len(b) >= maxRecord {
		return b, nil
	}
	return b[:0], writeAll(w, b)
}

// writeAll writes b, if it holds anything, and reports a short write as
// an error.
func writeAll(w io.Writer, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	n, err := w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return err
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
	jsonlClassLane = func() (f [len(classNames)][len(laneNames)]fragment) {
		for c, class := range classNames {
			for l, lane := range laneNames {
				f[c][l] = newFragment(`,"class":"` + class + `","lane":"` + lane + `","attempt":`)
			}
		}
		return f
	}()
	// instantHead[k] opens a Chrome instant: `{"name":"<kind>",...,"ts":`.
	instantHead = kindFragments(`{"name":`, `,"cat":"event","ph":"i","ts":`)
	// instantLane[l] is `,"lane":"<lane>","attempt":`.
	instantLane = func() (f [len(laneNames)]fragment) {
		for l, lane := range laneNames {
			f[l] = newFragment(`,"lane":"` + lane + `","attempt":`)
		}
		return f
	}()
	// spanHead[c] opens a Chrome span: `{"name":"<class> `.
	spanHead = func() (f [len(classNames)]fragment) {
		for c, class := range classNames {
			f[c] = newFragment(`{"name":"` + class + ` `)
		}
		return f
	}()
)

// kindFragments puts each known kind's quoted name between before and
// after.
func kindFragments(before, after string) (f [numKinds]fragment) {
	for k := range f {
		f[k] = newFragment(before + strconv.Quote(Kind(k).String()) + after)
	}
	return f
}

// fragment is one precomputed piece of a record, held in an array of a
// fixed size: appending it copies the whole array into the block's free
// space with a few fixed-size moves instead of a memmove call of the
// piece's length, then extends the block over the piece alone.
type fragment struct {
	text [fragmentBytes]byte
	n    int
}

// fragmentBytes bounds a fragment's length.
const fragmentBytes = 64

// newFragment holds s, which must fit.
func newFragment(s string) fragment {
	if len(s) > fragmentBytes {
		panic("obs: export fragment " + strconv.Quote(s) + " is too long")
	}
	f := fragment{n: len(s)}
	copy(f.text[:], s)
	return f
}

// appendFragment appends f's text.
func appendFragment(b []byte, f *fragment) []byte {
	n := len(b)
	b = slices.Grow(b, fragmentBytes)
	*(*[fragmentBytes]byte)(b[n : n+fragmentBytes]) = f.text
	return b[:n+f.n]
}

// WriteJSONL writes the recorder's events as JSON Lines, one event per
// line, in the order they were recorded. A truncated recording ends with
// an explicit marker line instead of silently looking complete.
func WriteJSONL(w io.Writer, r *Recorder) error {
	b := make([]byte, 0, blockBytes)
	var err error
	for evs := r.run(); len(evs.cur) > 0; evs.advance() {
		for _, ev := range evs.cur {
			if b, err = spill(w, b); err != nil {
				return err
			}
			b = appendJSONL(b, ev)
		}
	}
	if r.Lost() > 0 {
		if b, err = spill(w, b); err != nil {
			return err
		}
		b = append(b, `{"ev":"truncated","aux":`...)
		b = appendInt(b, r.Lost())
		b = append(b, "}\n"...)
	}
	return writeAll(w, b)
}

// appendJSONL appends one event's line.
func appendJSONL(b []byte, ev Event) []byte {
	b = append(b, `{"at":`...)
	b = appendInt(b, int64(ev.At))
	if ev.Kind < numKinds {
		b = appendFragment(b, &jsonlKind[ev.Kind])
	} else {
		b = append(b, `,"ev":`...)
		b = strconv.AppendQuote(b, ev.Kind.String())
		b = append(b, `,"id":`...)
	}
	b = appendUint(b, ev.ID)
	b = append(b, `,"src":`...)
	b = appendInt(b, int64(ev.Src))
	b = append(b, `,"dst":`...)
	b = appendInt(b, int64(ev.Dst))
	b = appendFragment(b, &jsonlClassLane[classSlot(ev.Class)][laneSlot(ev.Lane)])
	b = appendInt(b, int64(ev.Attempt))
	b = append(b, `,"aux":`...)
	b = appendInt(b, ev.Aux)
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
	b := append(make([]byte, 0, blockBytes), `{"traceEvents":[`...)
	var err error
	// injectAt pairs each packet's injection with its delivery, by packet
	// id.
	var injectAt table.Table[int64]
	wrote := false // whether a record is down: the next one takes a comma
	var lastAt sim.Cycle
	for evs := r.run(); len(evs.cur) > 0; evs.advance() {
		lastAt = evs.cur[len(evs.cur)-1].At
		for _, ev := range evs.cur {
			switch ev.Kind {
			case KindInject:
				*injectAt.Put(ev.ID) = int64(ev.At)
			case KindDeliver:
				start, ok := injectAt.Delete(ev.ID)
				if !ok {
					start = int64(ev.At)
				}
				if b, err = nextRecord(w, b, wrote); err != nil {
					return err
				}
				b, wrote = appendSpan(b, ev, start), true
			case KindCollision, KindBackoff, KindConfirmDrop, KindFault:
				if b, err = nextRecord(w, b, wrote); err != nil {
					return err
				}
				b, wrote = appendInstant(b, ev), true
			}
		}
	}
	if r.Lost() > 0 {
		if b, err = nextRecord(w, b, wrote); err != nil {
			return err
		}
		b = append(b, `{"name":"truncated","ph":"i","s":"g","ts":`...)
		b = appendInt(b, int64(lastAt))
		b = append(b, `,"pid":0,"tid":0,"args":{"lost":`...)
		b = appendInt(b, r.Lost())
		b = append(b, "}}"...)
	}
	if b, err = spill(w, b); err != nil {
		return err
	}
	return writeAll(w, append(b, "]}\n"...))
}

// nextRecord makes room for one more Chrome trace record, as spill does,
// and puts down the comma that separates it from the one before, when
// there is one.
func nextRecord(w io.Writer, b []byte, after bool) ([]byte, error) {
	b, err := spill(w, b)
	if after {
		b = append(b, ',')
	}
	return b, err
}

// appendSpan appends the complete ("X") span of a packet injected at
// start and delivered by ev.
func appendSpan(b []byte, ev Event, start int64) []byte {
	b = appendFragment(b, &spanHead[classSlot(ev.Class)])
	b = appendInt(b, int64(ev.Src))
	b = append(b, "->"...)
	b = appendInt(b, int64(ev.Dst))
	b = append(b, `","cat":"packet","ph":"X","ts":`...)
	b = appendInt(b, start)
	b = append(b, `,"dur":`...)
	b = appendInt(b, int64(ev.At)-start)
	b = append(b, `,"pid":0,"tid":`...)
	b = appendInt(b, int64(ev.Src))
	b = append(b, `,"args":{"id":`...)
	b = appendUint(b, ev.ID)
	b = append(b, `,"status":"delivered","retries":`...)
	b = appendInt(b, int64(ev.Attempt))
	b = append(b, `,"aux":`...)
	b = appendInt(b, ev.Aux)
	return append(b, "}}"...)
}

// appendInstant appends the instant ("i") event of a mid-life event,
// whose kind is a known one.
func appendInstant(b []byte, ev Event) []byte {
	b = appendFragment(b, &instantHead[ev.Kind])
	b = appendInt(b, int64(ev.At))
	b = append(b, `,"pid":0,"tid":`...)
	b = appendInt(b, int64(ev.Src))
	b = append(b, `,"s":"t","args":{"id":`...)
	b = appendUint(b, ev.ID)
	b = append(b, `,"dst":`...)
	b = appendInt(b, int64(ev.Dst))
	b = appendFragment(b, &instantLane[laneSlot(ev.Lane)])
	b = appendInt(b, int64(ev.Attempt))
	b = append(b, `,"aux":`...)
	b = appendInt(b, ev.Aux)
	return append(b, "}}"...)
}

// digits4 holds the four-digit decimal strings "0000" to "9999" in order:
// n's four digits start at 4n.
var digits4 = func() (d [4 * 10000]byte) {
	for n := range 10000 {
		d[4*n], d[4*n+1], d[4*n+2], d[4*n+3] = byte('0'+n/1000), byte('0'+n/100%10), byte('0'+n/10%10), byte('0'+n%10)
	}
	return d
}()

// appendUint appends u in decimal, as strconv.AppendUint(b, u, 10) does,
// but straight into b: the leading group of one to four digits, then
// whole groups of four, each read from digits4, with no scratch array to
// fill and copy.
func appendUint(b []byte, u uint64) []byte {
	if u < 1e4 {
		return appendShort(b, u)
	}
	if u < 1e8 {
		q := u / 1e4
		return appendFour(appendShort(b, q), u-q*1e4)
	}
	q := u / 1e8
	r := u - q*1e8
	s := r / 1e4
	return appendFour(appendFour(appendUint(b, q), s), r-s*1e4)
}

// appendShort appends u < 10^4 without leading zeros.
func appendShort(b []byte, u uint64) []byte {
	d := digits4[4*u : 4*u+4]
	switch {
	case u < 10:
		return append(b, d[3])
	case u < 100:
		return append(b, d[2], d[3])
	case u < 1000:
		return append(b, d[1], d[2], d[3])
	}
	return append(b, d[0], d[1], d[2], d[3])
}

// appendFour appends u < 10^4 as four digits, leading zeros included.
func appendFour(b []byte, u uint64) []byte {
	d := digits4[4*u : 4*u+4]
	return append(b, d[0], d[1], d[2], d[3])
}

// appendInt appends v in decimal, as strconv.AppendInt(b, v, 10) does.
func appendInt(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b, u = append(b, '-'), -u
	}
	return appendUint(b, u)
}
