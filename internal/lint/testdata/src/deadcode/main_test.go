package main

import "testing"

// A selector in a test file is a read: tally.total is not reported.
func TestCount(t *testing.T) {
	if got := count(2).total; got != 2 {
		t.Fatalf("total = %d", got)
	}
}
