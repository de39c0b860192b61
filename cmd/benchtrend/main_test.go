package main

import "testing"

// TestFastestKeepsMinTimeAndMaxAllocs: the gate compares the least
// disturbed time, and an allocation seen on any run still counts.
func TestFastestKeepsMinTimeAndMaxAllocs(t *testing.T) {
	got := fastest([]engineBench{
		{NsPerOp: 16.8, AllocsPerOp: 0, BytesPerOp: 0, N: 100},
		{NsPerOp: 9.7, AllocsPerOp: 0, BytesPerOp: 0, N: 300},
		{NsPerOp: 12.1, AllocsPerOp: 1, BytesPerOp: 24, N: 200},
	})
	if want := (engineBench{NsPerOp: 9.7, AllocsPerOp: 1, BytesPerOp: 0, N: 300}); got != want {
		t.Fatalf("fastest = %+v, want %+v", got, want)
	}
	if one := fastest([]engineBench{{NsPerOp: 5, AllocsPerOp: 2}}); one.NsPerOp != 5 || one.AllocsPerOp != 2 {
		t.Fatalf("fastest of one run = %+v", one)
	}
}
