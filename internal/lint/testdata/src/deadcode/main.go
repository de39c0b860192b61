// Package main is the fixture for the module-wide dead-code rule.
package main

import "fmt"

type square struct{ side int }

// String is exempt: fmt calls it without naming it.
func (s square) String() string { return fmt.Sprintf("square(%d)", s.side) }

// probe's SetObserver is exempt: it implements the anonymous
// interface main asserts, which names the interface method instead.
type probe struct{ seen int }

func (p *probe) SetObserver(n int) { p.seen = n }

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

func main() {
	var x any = &probe{}
	if o, ok := x.(interface{ SetObserver(int) }); ok {
		o.SetObserver(area(square{side: 2}))
	}
	fmt.Println(square{side: 3})
}
