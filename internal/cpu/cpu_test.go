package cpu_test

import (
	"testing"

	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/cpu"
	"fsoi/internal/sim"
)

// fabric is a trivial message fabric: 1-cycle delivery to a single
// directory with a stub memory answering instantly.
type fabric struct {
	engine *sim.Engine
	l1     *coherence.L1
	dir    *coherence.Directory
}

func (f *fabric) Send(m coherence.Msg) bool {
	f.engine.After(1, func(now sim.Cycle) {
		switch m.Type {
		case coherence.ReqMem:
			f.engine.After(5, func(at sim.Cycle) {
				f.Send(coherence.Msg{Type: coherence.MemAck, Addr: m.Addr, From: m.To, To: m.From, HasData: true})
			})
		case coherence.MemWrite:
		case coherence.MemAck, coherence.ReqSh, coherence.ReqEx, coherence.ReqUpg,
			coherence.WriteBack, coherence.InvAck, coherence.DwgAck, coherence.SyncReq:
			f.dir.Handle(m, now)
		default:
			f.l1.Handle(m, now)
		}
	})
	return true
}
func (f *fabric) ConfirmationElision() bool                    { return false }
func (f *fabric) BooleanSubscription() bool                    { return false }
func (f *fabric) SendBit(from, to int, tag uint64, value bool) {}

// syncStub counts sync calls and completes them after a fixed delay.
type syncStub struct {
	engine   *sim.Engine
	acquires int
	releases int
	barriers int
}

func (s *syncStub) Acquire(core, id int, done func(sim.Cycle)) {
	s.acquires++
	s.engine.After(3, done)
}
func (s *syncStub) Release(core, id int, done func(sim.Cycle)) {
	s.releases++
	s.engine.After(1, done)
}
func (s *syncStub) Barrier(core, id int, done func(sim.Cycle)) {
	s.barriers++
	s.engine.After(5, done)
}

// opStream replays a fixed op list.
type opStream struct {
	ops []cpu.Op
	i   int
}

func (s *opStream) Next() (cpu.Op, bool) {
	if s.i >= len(s.ops) {
		return cpu.Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

func rig(t *testing.T, ops []cpu.Op) (*cpu.Core, *sim.Engine, *syncStub, *bool) {
	t.Helper()
	engine := sim.NewEngine()
	f := &fabric{engine: engine}
	rng := sim.NewRNG(1)
	l1 := coherence.NewL1(0, coherence.PaperL1(), engine, rng, f, func(cache.LineAddr) int { return 0 })
	dir := coherence.NewDirectory(0, coherence.PaperDir(), engine, f, func(int) int { return 0 })
	f.l1, f.dir = l1, dir
	engine.Register(l1)
	engine.Register(dir)
	sync := &syncStub{engine: engine}
	finished := false
	core := cpu.New(0, cpu.PaperCore(), engine, l1, &opStream{ops: ops}, sync,
		func(int, sim.Cycle) { finished = true })
	core.Start()
	return core, engine, sync, &finished
}

func TestComputeTiming(t *testing.T) {
	core, engine, _, finished := rig(t, []cpu.Op{
		{Kind: cpu.OpCompute, Cycles: 10},
		{Kind: cpu.OpCompute, Cycles: 5},
	})
	engine.Run(14)
	if *finished {
		t.Fatal("finished too early")
	}
	engine.Run(20)
	if !*finished {
		t.Fatal("never finished")
	}
	if core.Stats().ComputeCyc != 15 {
		t.Fatalf("compute cycles = %d", core.Stats().ComputeCyc)
	}
}

func TestLoadBlocksUntilFill(t *testing.T) {
	core, engine, _, finished := rig(t, []cpu.Op{
		{Kind: cpu.OpLoad, Addr: 0x10},
	})
	engine.Run(3)
	if *finished {
		t.Fatal("a miss cannot complete in 3 cycles")
	}
	engine.Run(200)
	if !*finished {
		t.Fatal("load never completed")
	}
	if core.Stats().StallLoad == 0 {
		t.Fatal("load stall cycles must be recorded")
	}
	if core.Stats().Loads != 1 {
		t.Fatalf("%d loads counted, want 1", core.Stats().Loads)
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	var ops []cpu.Op
	for i := 0; i < 8; i++ {
		ops = append(ops, cpu.Op{Kind: cpu.OpStore, Addr: cache.LineAddr(0x20 + i)})
	}
	core, engine, _, _ := rig(t, ops)
	// All 8 stores issue within ~16 cycles even though each miss takes
	// tens of cycles.
	engine.Run(20)
	if core.Stats().Stores != 8 {
		t.Fatalf("issued %d stores in 20 cycles, want 8 (non-blocking)", core.Stats().Stores)
	}
}

func TestStoreBufferLimitStalls(t *testing.T) {
	var ops []cpu.Op
	for i := 0; i < 24; i++ {
		ops = append(ops, cpu.Op{Kind: cpu.OpStore, Addr: cache.LineAddr(0x40 + i)})
	}
	core, engine, _, finished := rig(t, ops)
	engine.Run(20)
	if core.Stats().Stores >= 24 {
		t.Fatal("a 16-entry store buffer cannot absorb 24 misses instantly")
	}
	engine.Run(3000)
	if !*finished {
		t.Fatal("stores never drained")
	}
	if core.Stats().StallStore == 0 {
		t.Fatal("store-buffer stalls must be recorded")
	}
}

func TestSyncDrainsStores(t *testing.T) {
	_, engine, sync, finished := rig(t, []cpu.Op{
		{Kind: cpu.OpStore, Addr: 0x60},
		{Kind: cpu.OpBarrier, ID: 0},
	})
	// The barrier must not be entered until the store drains.
	engine.Run(2)
	if sync.barriers != 0 {
		t.Fatal("barrier entered before the store buffer drained")
	}
	engine.Run(3000)
	if sync.barriers != 1 || !*finished {
		t.Fatalf("barriers=%d finished=%v", sync.barriers, *finished)
	}
}

func TestLockOpsRouteToFabric(t *testing.T) {
	core, engine, sync, finished := rig(t, []cpu.Op{
		{Kind: cpu.OpLockAcquire, ID: 3},
		{Kind: cpu.OpCompute, Cycles: 2},
		{Kind: cpu.OpLockRelease, ID: 3},
	})
	engine.Run(100)
	if sync.acquires != 1 || sync.releases != 1 {
		t.Fatalf("acquires=%d releases=%d", sync.acquires, sync.releases)
	}
	if !*finished {
		t.Fatal("never finished")
	}
	if core.Stats().LockAcquires != 1 {
		t.Fatal("lock stat missing")
	}
	if core.Stats().StallSync == 0 {
		t.Fatal("sync stall cycles must be recorded")
	}
}

func TestFinishWaitsForStores(t *testing.T) {
	core, engine, _, finished := rig(t, []cpu.Op{
		{Kind: cpu.OpStore, Addr: 0x70},
	})
	engine.Run(2)
	if *finished {
		t.Fatal("cannot finish with a store in flight")
	}
	engine.Run(3000)
	if !*finished || !core.Done() {
		t.Fatal("never finished")
	}
	if core.Stats().FinishCycle == 0 {
		t.Fatal("finish cycle must be recorded")
	}
}

func TestOpsCounted(t *testing.T) {
	core, engine, _, _ := rig(t, []cpu.Op{
		{Kind: cpu.OpCompute, Cycles: 1},
		{Kind: cpu.OpLoad, Addr: 0x80},
		{Kind: cpu.OpStore, Addr: 0x80},
	})
	engine.Run(2000)
	st := core.Stats()
	if st.Ops != 3 || st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("ops=%d loads=%d stores=%d", st.Ops, st.Loads, st.Stores)
	}
}
