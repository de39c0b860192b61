package coherence

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"fsoi/internal/cache"
	"fsoi/internal/sim"
)

// wire is a transport that only records: the tests below play every
// message the directory receives by hand.
type wire struct{ sent []Msg }

func (w *wire) Send(m Msg) bool                { w.sent = append(w.sent, m); return true }
func (w *wire) ConfirmationElision() bool      { return false }
func (w *wire) BooleanSubscription() bool      { return false }
func (w *wire) SendBit(int, int, uint64, bool) {}

// slice is one home directory driven message by message.
type slice struct {
	engine *sim.Engine
	w      *wire
	d      *Directory
}

func newSlice(cfg DirConfig) *slice {
	s := &slice{engine: sim.NewEngine(), w: &wire{}}
	s.d = NewDirectory(0, cfg, s.engine, s.w, func(int) int { return 0 })
	return s
}

// handle delivers m and lets the L2 pipeline empty.
func (s *slice) handle(m Msg) {
	s.d.Handle(m, s.engine.Now())
	for s.engine.Pending() > 0 {
		s.engine.Step()
	}
}

// req delivers an L1 request for addr from node from.
func (s *slice) req(t MsgType, from int, addr cache.LineAddr) {
	s.handle(Msg{Type: t, Addr: addr, From: from})
}

// sent lists the destinations of the messages of type t sent since mark
// (an index into the wire's log), in send order.
func (s *slice) sent(mark int, t MsgType) []int {
	var to []int
	for _, m := range s.w.sent[mark:] {
		if m.Type == t {
			to = append(to, m.To)
		}
	}
	return to
}

// share brings addr to DS with exactly the given nodes as sharers: the
// first reads it from memory as the owner, the second downgrades it, the
// rest read it from L2.
func (s *slice) share(addr cache.LineAddr, nodes ...int) {
	s.req(ReqSh, nodes[0], addr)
	s.handle(Msg{Type: MemAck, Addr: addr, HasData: true})
	s.req(ReqSh, nodes[1], addr)
	s.handle(Msg{Type: DwgAck, Addr: addr, From: nodes[0]})
	for _, n := range nodes[2:] {
		s.req(ReqSh, n, addr)
	}
}

// sharers lists the nodes below nodes the directory counts as sharers of addr.
func (s *slice) sharers(addr cache.LineAddr, nodes int) []int {
	e := s.d.lookup(addr)
	var in []int
	for n := range nodes {
		if s.d.hasSharer(e, n) {
			in = append(in, n)
		}
	}
	return in
}

// TestDirEntryIsFortyPointerFreeBytes pins the record layout: at most 40
// bytes, and nothing in it the garbage collector would have to follow, so
// the slab's chunks are allocated as noscan memory.
func TestDirEntryIsFortyPointerFreeBytes(t *testing.T) {
	if size := unsafe.Sizeof(dirEntry{}); size > 40 {
		t.Errorf("dirEntry is %d bytes, budget 40", size)
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %v", path, ty.Kind())
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(dirEntry{}), "dirEntry")
}

// TestSlabPosIsDense: the records alloc hands out, chunk after growing
// chunk, are numbered 0, 1, 2, ... so out-of-line words have no gaps.
func TestSlabPosIsDense(t *testing.T) {
	d := newSlice(PaperDir()).d
	for want := range 1000 {
		if got := slabPos(d.alloc()); got != want {
			t.Fatalf("record %d has slab position %d", want, got)
		}
	}
}

// TestWideSharers drives a slice of a 128-node system: sharers on both
// sides of node 64 live in the inline word and the out-of-line one.
func TestWideSharers(t *testing.T) {
	wide := []int{3, 63, 64, 100, 127}

	t.Run("invalidations go to every sharer in ascending order", func(t *testing.T) {
		s := newSlice(PaperDir())
		s.share(line, 100, 3, 127, 64, 63)
		if got := s.sharers(line, 128); !slices.Equal(got, wide) {
			t.Fatalf("sharers %v, want %v", got, wide)
		}
		mark := len(s.w.sent)
		s.req(ReqEx, 5, line)
		if got := s.sent(mark, Inv); !slices.Equal(got, wide) {
			t.Fatalf("Inv sent to %v, want %v", got, wide)
		}
		if got := s.sharers(line, 128); len(got) != 0 {
			t.Fatalf("sharers %v after the invalidations, want none", got)
		}
	})

	t.Run("an upgrade from node 100 while shared is an upgrade", func(t *testing.T) {
		s := newSlice(PaperDir())
		s.share(line, 3, 100)
		mark := len(s.w.sent)
		s.req(ReqUpg, 100, line)
		s.handle(Msg{Type: InvAck, Addr: line, From: 3})
		if got := s.sent(mark, ExcAck); !slices.Equal(got, []int{100}) || len(s.sent(mark, DataM)) != 0 {
			t.Fatalf("ExcAck to %v, DataM to %v: want the upgrade granted to 100 without data", got, s.sent(mark, DataM))
		}
		// A node past 63 that is not a sharer is read exclusive instead.
		s.share(line+1, 3, 100)
		mark = len(s.w.sent)
		s.req(ReqUpg, 101, line+1)
		s.handle(Msg{Type: InvAck, Addr: line + 1, From: 3})
		s.handle(Msg{Type: InvAck, Addr: line + 1, From: 100})
		if got := s.sent(mark, DataM); !slices.Equal(got, []int{101}) || len(s.sent(mark, ExcAck)) != 0 {
			t.Fatalf("DataM to %v, ExcAck to %v: want the stale upgrade from 101 answered with data", got, s.sent(mark, ExcAck))
		}
	})

	t.Run("clear leaves no stale high word", func(t *testing.T) {
		s := newSlice(PaperDir())
		s.share(line, wide...)
		e := s.d.lookup(line)
		s.d.clearSharers(e)
		if e.sharers != 0 || slices.ContainsFunc(s.d.wideWords(e.ref), func(w uint64) bool { return w != 0 }) {
			t.Fatalf("after clear: inline %#x, out of line %#x", e.sharers, s.d.wideWords(e.ref))
		}
	})

	t.Run("a reused record starts with no sharers", func(t *testing.T) {
		cfg := PaperDir()
		cfg.SliceLines = 1
		s := newSlice(cfg)
		s.share(line, 3, 100)
		ref := s.d.lookup(line).ref
		// A second line pushes the first out: its sharers are invalidated
		// and its record freed.
		s.req(ReqSh, 1, line+1)
		s.handle(Msg{Type: InvAck, Addr: line, From: 3})
		s.handle(Msg{Type: InvAck, Addr: line, From: 100})
		s.handle(Msg{Type: MemAck, Addr: line + 1, HasData: true})
		if s.d.EntryState(line) != "DI" {
			t.Fatalf("line still in the directory in %s", s.d.EntryState(line))
		}
		s.req(ReqSh, 2, line+2)
		e := s.d.lookup(line + 2)
		if e.ref != ref {
			t.Fatalf("the third line got record %d, want the freed %d", e.ref, ref)
		}
		if got := s.sharers(line+2, 128); len(got) != 0 || slices.ContainsFunc(s.d.wideWords(e.ref), func(w uint64) bool { return w != 0 }) {
			t.Fatalf("reused record has sharers %v, out-of-line words %#x", got, s.d.wideWords(e.ref))
		}
	})
}

// TestStallQueue: requests stalled on a busy line resume first in, first
// out; the ninth NACKs; a drained queue is reused, backing array and all.
func TestStallQueue(t *testing.T) {
	s := newSlice(PaperDir())
	s.req(ReqSh, 1, line) // DI.DSD: the line waits for memory
	for n := 2; n <= 10; n++ {
		s.req(ReqSh, n, line)
	}
	e := s.d.lookup(line)
	if got := s.sent(0, Nack); !slices.Equal(got, []int{10}) || len(s.d.queue(e)) != maxStalled {
		t.Fatalf("NACKs to %v with %d stalled; want the 9th request (node 10) NACKed and 8 stalled", got, len(s.d.queue(e)))
	}
	if !strings.Contains(s.d.DumpTransients("dir"), "pending=8") {
		t.Fatalf("dump does not show the queue:\n%s", s.d.DumpTransients("dir"))
	}

	mark := len(s.w.sent)
	s.handle(Msg{Type: MemAck, Addr: line, HasData: true}) // node 1 owns it, node 2 downgrades it
	s.handle(Msg{Type: DwgAck, Addr: line, From: 1})       // DS: nodes 3..9 are read from L2
	if got, want := s.sent(mark, DataS), []int{2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("DataS to %v, want %v: stalled requests resume in arrival order", got, want)
	}
	if e.stall != 0 || s.d.stalled != 0 || len(s.d.queues) != 1 || !slices.Equal(s.d.queueFree, []uint16{0}) {
		t.Fatalf("drained: stall index %d, %d stalled, %d queues, free %v", e.stall, s.d.stalled, len(s.d.queues), s.d.queueFree)
	}

	s.req(ReqSh, 1, line+1)
	s.req(ReqSh, 2, line+1)
	if e := s.d.lookup(line + 1); e.stall != 1 || len(s.d.queues) != 1 || cap(s.d.queues[0]) < maxStalled {
		t.Fatalf("a new stall got queue %d of %d (capacity %d): want the drained one reused", e.stall, len(s.d.queues), cap(s.d.queues[0]))
	}
}
