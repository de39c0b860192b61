// Package main is the fixture for the module-wide dead-code rule.
package main

import "fmt"

type square struct{ side int }

// String is exempt: fmt calls it without naming it.
func (s square) String() string { return fmt.Sprintf("square(%d)", s.side) }

// area is used: main calls it.
func area(s square) int { return s.side * s.side }

func unused() int { return 1 } // want "deadcode: fsoi/cmd/deadcode.unused$"

// countdown's only user is itself.
func countdown(n int) int { // want "deadcode: fsoi/cmd/deadcode.countdown$"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// A method that nothing calls and no interface asks for is reported too.
func (s square) perimeter() int { return 4 * s.side } // want "deadcode: fsoi/cmd/deadcode.square.perimeter$"

// sizer is the interface the types below become, or do not.
type sizer interface{ size() int }

// fromReturn, fromArg and fromBlank become a sizer through a return, a
// call argument and a blank assertion, so a call through the interface
// reaches their size methods.
type fromReturn struct{}

func (fromReturn) size() int { return 1 }

type fromArg struct{}

func (fromArg) size() int { return 2 }

type fromBlank struct{}

func (*fromBlank) size() int { return 3 }

var _ sizer = (*fromBlank)(nil)

// never implements sizer, but no value of it becomes one, so no call
// reaches its size: implementing an interface by name is no use.
type never struct{}

func (never) size() int { return 4 } // want "deadcode: fsoi/cmd/deadcode.never.size$"

func newSizer() sizer { return fromReturn{} }

func measure(s sizer) int { return s.size() }

// A method of a declared interface is used only where a selection
// names it: main calls area through a shape, and nothing calls corners,
// though box implements both and becomes a shape.
type shape interface {
	area() int
	corners() int // want "deadcode: fsoi/cmd/deadcode.shape.corners$"
}

type box struct{ w, h int }

func (b box) area() int    { return b.w * b.h }
func (b box) corners() int { return 4 }

// probe's SetObserver is reached through the type assertion in main,
// because a *probe has become an interface there.
type probe struct{ seen int }

func (p *probe) SetObserver(n int) { p.seen = n }

// tally's hits is written and never read. misses is written only too,
// but its tag says an encoder reads it; total is read only by a test.
type tally struct {
	hits   int // want "deadcode: fsoi/cmd/deadcode.tally.hits$"
	misses int `json:"misses"`
	total  int
}

func count(n int) tally {
	t := tally{misses: n}
	t.hits++
	t.total = n
	return t
}

func main() {
	p := &probe{}
	var x any = p
	if o, ok := x.(interface{ SetObserver(int) }); ok {
		o.SetObserver(area(square{side: 2}))
	}
	_ = never{}
	fmt.Println(square{side: 3}, p.seen, newSizer().size()+measure(fromArg{}))
	_ = count(2)
	var sh shape = box{w: 2, h: 3}
	fmt.Println(sh.area())
}
