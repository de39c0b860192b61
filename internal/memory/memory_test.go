package memory

import (
	"testing"

	"fsoi/internal/cache"
	"fsoi/internal/coherence"
	"fsoi/internal/sim"
)

func TestLineOccupancy(t *testing.T) {
	// 8.8 GB/s over 4 channels at 3.3 GHz: 2.2 GB/s per channel =
	// 0.667 B/cycle, so a 64 B line occupies ~96 cycles.
	c := PaperMemory(4)
	occ := c.LineOccupancyCycles()
	if occ < 90 || occ > 102 {
		t.Fatalf("occupancy = %d cycles, want ~96", occ)
	}
	// Table 4's 52.8 GB/s is 6x faster.
	c.TotalGBps = 52.8
	if fast := c.LineOccupancyCycles(); fast < 14 || fast > 18 {
		t.Fatalf("fast occupancy = %d cycles, want ~16", fast)
	}
}

func TestAttachNodes(t *testing.T) {
	n4 := AttachNodes(4, 4)
	if len(n4) != 4 {
		t.Fatalf("want 4 attach points, got %v", n4)
	}
	want := map[int]bool{0: true, 3: true, 12: true, 15: true}
	for _, n := range n4 {
		if !want[n] {
			t.Fatalf("channel at node %d is not a corner of the 4x4 mesh", n)
		}
	}
	n8 := AttachNodes(8, 8)
	if len(n8) != 8 {
		t.Fatalf("want 8 attach points, got %v", n8)
	}
	for _, n := range n8 {
		if n < 0 || n >= 64 {
			t.Fatalf("attach node %d out of range", n)
		}
	}
}

// collect runs a controller and gathers replies with their cycles.
func collect(t *testing.T, cfg Config, reqs []coherence.Msg) ([]coherence.Msg, []sim.Cycle) {
	t.Helper()
	engine := sim.NewEngine()
	var replies []coherence.Msg
	var at []sim.Cycle
	ctl := NewController(0, cfg, engine, func(m coherence.Msg) {
		replies = append(replies, m)
		at = append(at, engine.Now())
	})
	for _, m := range reqs {
		m := m
		engine.At(0, func(now sim.Cycle) { ctl.Handle(m, now) })
	}
	engine.Run(sim.Cycle(cfg.LatencyCycles) + 50*cfg.LineOccupancyCycles())
	return replies, at
}

func TestReadRepliesWithData(t *testing.T) {
	cfg := PaperMemory(4)
	replies, _ := collect(t, cfg, []coherence.Msg{
		{Type: coherence.ReqMem, Addr: 7, From: 3, To: 0},
	})
	if len(replies) != 1 {
		t.Fatalf("want 1 reply, got %d", len(replies))
	}
	r := replies[0]
	if r.Type != coherence.MemAck || !r.HasData || r.To != 3 || r.Addr != 7 {
		t.Fatalf("reply: %+v", r)
	}
}

func TestWriteIsSilent(t *testing.T) {
	cfg := PaperMemory(4)
	replies, _ := collect(t, cfg, []coherence.Msg{
		{Type: coherence.MemWrite, Addr: 7, From: 3, To: 0, HasData: true},
	})
	if len(replies) != 0 {
		t.Fatalf("writes must not reply: %+v", replies)
	}
}

func TestBandwidthSerializesRequests(t *testing.T) {
	cfg := PaperMemory(4)
	var reqs []coherence.Msg
	for i := 0; i < 4; i++ {
		reqs = append(reqs, coherence.Msg{Type: coherence.ReqMem, Addr: 7, From: 1, To: 0})
	}
	replies, at := collect(t, cfg, reqs)
	if len(replies) != 4 {
		t.Fatalf("replies = %d, want 4", len(replies))
	}
	// The 2nd..4th requests must have queued behind channel occupancy.
	for i := 1; i < len(at); i++ {
		if gap := at[i] - at[i-1]; gap < cfg.LineOccupancyCycles() {
			t.Fatalf("replies %d and %d are %d cycles apart; requests should have serialized", i-1, i, gap)
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	cfg := PaperMemory(4)
	engine := sim.NewEngine()
	var replyAt sim.Cycle = -1
	ctl := NewController(0, cfg, engine, func(m coherence.Msg) { replyAt = engine.Now() })
	engine.At(0, func(now sim.Cycle) {
		ctl.Handle(coherence.Msg{Type: coherence.ReqMem, Addr: 1, From: 0, To: 0}, now)
	})
	engine.Run(1000)
	min := sim.Cycle(cfg.LatencyCycles)
	if replyAt < min {
		t.Fatalf("reply at %d, before the %d-cycle access latency", replyAt, min)
	}
}

func TestUnknownMessagePanics(t *testing.T) {
	cfg := PaperMemory(4)
	engine := sim.NewEngine()
	ctl := NewController(0, cfg, engine, func(coherence.Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("non-memory messages must panic")
		}
	}()
	ctl.Handle(coherence.Msg{Type: coherence.ReqSh}, 0)
}

// TestRepliesMatchPerReadSchedule: reads in progress are a FIFO answered by
// one callback, which is right only because completions come in arrival
// order. Against the per-read schedule computed independently (start when
// the channel frees, occupancy, then latency), every reply must carry its
// own read's home and line at its own cycle, through bursts that fill the
// FIFO, lulls that drain it, and the compaction in between.
func TestRepliesMatchPerReadSchedule(t *testing.T) {
	cfg := PaperMemory(8)
	cfg.TotalGBps = 52.8 // 32 cycles a line: a burst of reads queues 6 deep under the 200-cycle latency
	occ, lat := cfg.LineOccupancyCycles(), sim.Cycle(cfg.LatencyCycles)
	engine := sim.NewEngine()
	type reply struct {
		at   sim.Cycle
		home int
		addr uint64
	}
	var got, want []reply
	ctl := NewController(5, cfg, engine, func(m coherence.Msg) {
		if m.Type != coherence.MemAck || m.From != 5 || !m.HasData {
			t.Fatalf("reply %+v is not a MemAck with data from node 5", m)
		}
		got = append(got, reply{engine.Now(), m.To, uint64(m.Addr)})
	})
	rng := sim.NewRNG(11)
	free, maxDepth := sim.Cycle(0), 0
	for i := 0; i < 3000; i++ {
		if rng.Intn(10) == 0 {
			engine.Run(sim.Cycle(rng.Intn(2000))) // a lull: the FIFO drains
		} else {
			engine.Run(sim.Cycle(rng.Intn(40)))
		}
		now := engine.Now()
		m := coherence.Msg{Type: coherence.ReqMem, Addr: cache.LineAddr(1000 + i), From: rng.Intn(64)}
		if rng.Intn(4) == 0 {
			m.Type = coherence.MemWrite
		}
		free = max(free, now) + occ
		if m.Type == coherence.ReqMem {
			want = append(want, reply{free + lat, m.From, uint64(m.Addr)})
		}
		ctl.Handle(m, now)
		maxDepth = max(maxDepth, len(ctl.reads)-ctl.head)
	}
	engine.Run(10000)
	if maxDepth < 4 {
		t.Fatalf("at most %d reads were ever in progress: the script never queues", maxDepth)
	}
	if len(ctl.reads) != 0 || ctl.head != 0 || cap(ctl.reads) > 4*maxDepth {
		t.Fatalf("drained controller holds %d reads (head %d, capacity %d) after at most %d in progress", len(ctl.reads), ctl.head, cap(ctl.reads), maxDepth)
	}
	if len(got) != len(want) {
		t.Fatalf("%d replies for %d reads", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
