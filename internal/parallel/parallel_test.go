package parallel

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestDoZeroJobs(t *testing.T) {
	called := false
	DoWorker(0, 4, func(int, int) { called = true })
	DoWorker(-2, 4, func(int, int) { called = true })
	if called {
		t.Fatal("fn called with no jobs")
	}
}

func TestDoSerialRunsInOrder(t *testing.T) {
	var order []int
	DoWorker(6, 1, func(_, i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("ran %d jobs, want 6", len(order))
	}
}

func TestDoWorkersExceedJobs(t *testing.T) {
	var ran [3]int32
	DoWorker(3, 64, func(_, i int) { atomic.AddInt32(&ran[i], 1) })
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

func TestMapEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		out := Map(100, workers, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapMergeOrderUnderReverseCompletion forces workers to finish in
// the exact reverse of submission order — job i blocks until job i+1
// has completed — and checks the merged results are still in submission
// order. This is the property the whole design rests on: completion
// order must be invisible in the output.
func TestMapMergeOrderUnderReverseCompletion(t *testing.T) {
	const jobs = 8
	done := make([]chan struct{}, jobs)
	for i := range done {
		done[i] = make(chan struct{})
	}
	out := Map(jobs, jobs, func(i int) int {
		defer close(done[i])
		if i < jobs-1 {
			<-done[i+1] // stall until the next-higher job is done
		}
		return i * 10
	})
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("out[%d] = %d under reverse completion, want %d", i, v, i*10)
		}
	}
}

func TestDoPanicLowestJobWins(t *testing.T) {
	t.Run("DoWorker", checkDoWorkerPanicLowestJobWins)
}

func checkDoWorkerPanicLowestJobWins(t *testing.T) {
	const jobs = 6
	// Barrier: every job reaches the panic point before any panics, so
	// both panicking jobs (2 and 5) definitely record, and the pool must
	// pick the lowest index rather than the first to arrive.
	var gate sync.WaitGroup
	gate.Add(jobs)
	defer func() {
		v := recover()
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *PanicError", v, v)
		}
		if pe.Job != 2 {
			t.Fatalf("PanicError.Job = %d, want 2 (lowest panicking index)", pe.Job)
		}
		if pe.Value != "boom-2" {
			t.Fatalf("PanicError.Value = %v, want boom-2", pe.Value)
		}
		if pe.Error() == "" {
			t.Fatal("empty Error() string")
		}
	}()
	DoWorker(jobs, jobs, func(_, i int) {
		gate.Done()
		gate.Wait()
		if i == 2 {
			panic("boom-2")
		}
		if i == 5 {
			panic("boom-5")
		}
	})
	t.Fatal("returned despite worker panics")
}

func TestDoSerialPanicUnwrapped(t *testing.T) {
	defer func() {
		if v := recover(); v != "raw" {
			t.Fatalf("serial panic = %v, want the raw value", v)
		}
	}()
	DoWorker(3, 1, func(_, i int) {
		if i == 1 {
			panic("raw")
		}
	})
}

func TestDoAbandonsAfterPanic(t *testing.T) {
	// With one effective dispenser, a panic in an early job must stop
	// later jobs from being handed out (they would be wasted work behind
	// a doomed merge). Run many jobs on 2 workers with job 0 panicking
	// immediately; the count of executed jobs should stay well short.
	// Every other job first waits for job 0 to start and then takes a
	// millisecond, so the other worker cannot drain the whole queue in
	// the instant between job 0's panic and its recording, however the
	// goroutines are scheduled.
	var ran int32
	started := make(chan struct{})
	func() {
		defer func() { recover() }()
		DoWorker(1000, 2, func(_, i int) {
			if i == 0 {
				close(started)
				panic("early")
			}
			<-started
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&ran, 1)
		})
	}()
	if n := atomic.LoadInt32(&ran); n >= 999 {
		t.Fatalf("all %d remaining jobs ran after the panic; dispenser did not abandon", n)
	}
}

// TestDoWorkerIDs: every job runs exactly once, on a worker whose id is
// below min(workers, jobs) (1 when serial) as WorkerIDs reports, and no
// worker runs two jobs at once — the property per-worker state rests on.
func TestDoWorkerIDs(t *testing.T) {
	for _, tc := range []struct{ jobs, workers int }{{1, 4}, {3, 64}, {100, 1}, {100, 2}, {100, 7}, {5, 0}, {5, -3}} {
		ran := make([]int32, tc.jobs)
		limit := max(min(tc.workers, tc.jobs), 1)
		if got := WorkerIDs(tc.jobs, tc.workers); got != limit {
			t.Errorf("WorkerIDs(%d, %d) = %d, want %d", tc.jobs, tc.workers, got, limit)
		}
		busy := make([]int32, limit)
		DoWorker(tc.jobs, tc.workers, func(w, job int) {
			if w < 0 || w >= limit {
				t.Errorf("jobs=%d workers=%d: job %d on worker %d, want [0, %d)", tc.jobs, tc.workers, job, w, limit)
				return
			}
			if atomic.AddInt32(&busy[w], 1) != 1 {
				t.Errorf("worker %d runs two jobs at once", w)
			}
			atomic.AddInt32(&ran[job], 1)
			runtime.Gosched()
			atomic.AddInt32(&busy[w], -1)
		})
		for job, n := range ran {
			if n != 1 {
				t.Fatalf("jobs=%d workers=%d: job %d ran %d times", tc.jobs, tc.workers, job, n)
			}
		}
	}
}

// TestDoWorkerSerialIsCaller: the serial path is a loop on the calling
// goroutine as worker 0, in job order — a panic unwinds straight through
// it, unwrapped, with the jobs before it done and none after.
func TestDoWorkerSerialIsCaller(t *testing.T) {
	var order []int
	func() {
		defer func() {
			if v := recover(); v != "raw" {
				t.Fatalf("serial panic = %v, want the raw value", v)
			}
		}()
		DoWorker(5, 1, func(w, job int) {
			if w != 0 {
				t.Errorf("serial job %d on worker %d", job, w)
			}
			order = append(order, job) // unsynchronized: the race detector flags a second goroutine
			if job == 3 {
				panic("raw")
			}
		})
	}()
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("serial order %v, want [0 1 2 3]", order)
	}
}

// TestPoolReuse exercises Pool: many Run calls on one pool, panic
// propagation, and serial-pool semantics.
func TestPoolReuse(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for round := 0; round < 50; round++ {
		out := make([]int, 37)
		pool.Run(len(out), func(i int) { out[i] = i * round })
		for i, v := range out {
			if v != i*round {
				t.Fatalf("round %d: out[%d] = %d", round, i, v)
			}
		}
	}
	func() {
		defer func() {
			pe, ok := recover().(*PanicError)
			if !ok {
				t.Fatal("pool panic did not propagate as *PanicError")
			}
			if pe.Job != 3 {
				t.Errorf("PanicError.Job = %d, want lowest panicking index 3", pe.Job)
			}
		}()
		pool.Run(8, func(i int) {
			if i >= 3 {
				panic("boom")
			}
		})
	}()
	// The pool must still be usable after a panicking run.
	sum := make([]int, 8)
	pool.Run(8, func(i int) { sum[i] = 1 })
	serial := NewPool(1)
	serial.Run(4, func(i int) { sum[i]++ })
	serial.Close()
}
