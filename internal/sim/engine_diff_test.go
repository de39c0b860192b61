package sim

import (
	"reflect"
	"testing"
)

// heapEngine is the engine as it was before the calendar queue: every
// event in one (cycle, seq) heap. It is the reference the differential
// tests hold Engine to.
type heapEngine struct {
	now      Cycle
	tickers  []Ticker
	events   eventQueue
	seq      uint64
	fired    uint64
	maxDepth int
}

func (e *heapEngine) Now() Cycle          { return e.now }
func (e *heapEngine) Register(t Ticker)   { e.tickers = append(e.tickers, t) }
func (e *heapEngine) Pending() int        { return len(e.events.a) }
func (e *heapEngine) EventsFired() uint64 { return e.fired }
func (e *heapEngine) MaxQueueDepth() int  { return e.maxDepth }

func (e *heapEngine) At(at Cycle, fn func(now Cycle)) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
	if d := len(e.events.a); d > e.maxDepth {
		e.maxDepth = d
	}
}

func (e *heapEngine) Step() {
	for len(e.events.a) > 0 && e.events.a[0].at <= e.now {
		ev := e.events.pop()
		e.fired++
		ev.fn(e.now)
	}
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
	e.now++
}

// scriptedEngine is what a schedule script drives: Engine and the
// reference alike.
type scriptedEngine interface {
	Now() Cycle
	At(at Cycle, fn func(now Cycle))
	Register(t Ticker)
	Step()
	Pending() int
	EventsFired() uint64
	MaxQueueDepth() int
}

// firing is one callback execution as the script's log records it.
type firing struct {
	id      int
	at      Cycle
	pending int // Pending() as seen from inside the callback
}

// scriptDelay decodes one script byte into a delay, weighted towards the
// wheel's edges: same cycle, a few cycles, one revolution less one,
// exactly one, one more, and several revolutions.
func scriptDelay(c byte) Cycle {
	hi := Cycle(c >> 3)
	switch c & 7 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 2 + hi%6
	case 3:
		return wheelSize - 1
	case 4:
		return wheelSize
	case 5:
		return wheelSize + 1
	case 6:
		return (1+hi%3)*wheelSize + hi
	default:
		return hi
	}
}

// The situations the seed scripts exist to reach; runScript reports which
// of them a script produced.
const (
	caseDelay0InEvent = "delay 0 from inside an event"
	caseTickerNow     = "At(now) from a ticker"
	caseRevolution    = "one revolution, less one and plus one"
	caseRevolutions   = "several revolutions"
	caseFarAndNear    = "far and near events due on one cycle"
	caseOutsideNow    = "At(now) between steps with events pending"
)

// scriptRun is everything observable about one script on one engine,
// plus which of the situations above the script reached.
type scriptRun struct {
	log               []firing
	now               Cycle
	pending, maxDepth int
	fired             uint64
	reached           map[string]bool
}

// runScript interprets script against e. Every scheduling decision
// consumes script bytes in the order the engine runs the deciders, so two
// engines that fire in the same order read the same script and two that
// do not diverge at once.
//
//   - A firing event logs itself, then schedules (byte % 3) children,
//     each at a delay decoded from one more byte: delay 0 lands in the
//     cycle being fired.
//   - The ticker acts on cycles that fired something: byte % 4 == 0
//     schedules At(now) from the ticker phase, == 1 a delayed event.
//   - Between steps, a byte % 4 == 3 (or an empty queue) schedules from
//     outside: delay 0 there is At(now) before the cycle's events fire.
func runScript(e scriptedEngine, script []byte) *scriptRun {
	const maxSteps = 1 << 21
	if len(script) > 256 {
		script = script[:256]
	}
	r := &scriptRun{reached: map[string]bool{}}
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(script) {
			return 0, false
		}
		c := script[pos]
		pos++
		return c, true
	}
	ids := 0
	firedThisCycle := false
	var lessOne, exactlyOne, plusOne bool  // the three delays around one revolution
	var farCycle, nearCycle Cycle = -1, -1 // last cycle a far-scheduled / near-scheduled event fired
	event := func(far bool) func(Cycle) { return nil }
	schedule := func(from string) {
		c, ok := next()
		if !ok {
			return
		}
		d := scriptDelay(c)
		switch {
		case d == 0 && from == "event":
			r.reached[caseDelay0InEvent] = true
		case d == 0 && from == "outside" && e.Pending() > 0:
			r.reached[caseOutsideNow] = true
		case d == wheelSize-1:
			lessOne = true
		case d == wheelSize:
			exactlyOne = true
		case d == wheelSize+1:
			plusOne = true
		case d >= 2*wheelSize:
			r.reached[caseRevolutions] = true
		}
		if lessOne && exactlyOne && plusOne {
			r.reached[caseRevolution] = true
		}
		e.At(e.Now()+d, event(d >= wheelSize))
	}
	event = func(far bool) func(Cycle) {
		id := ids
		ids++
		return func(now Cycle) {
			r.log = append(r.log, firing{id: id, at: now, pending: e.Pending()})
			firedThisCycle = true
			if far {
				farCycle = now
			} else {
				nearCycle = now
			}
			if farCycle == nearCycle {
				r.reached[caseFarAndNear] = true
			}
			if c, ok := next(); ok {
				for k := 0; k < int(c%3); k++ {
					schedule("event")
				}
			}
		}
	}
	e.Register(TickFunc(func(now Cycle) {
		if !firedThisCycle {
			return
		}
		c, ok := next()
		if !ok {
			return
		}
		switch c % 4 {
		case 0:
			r.reached[caseTickerNow] = true
			e.At(now, event(false))
		case 1:
			schedule("ticker")
		}
	}))
	for steps := 0; steps < maxSteps; steps++ {
		if e.Pending() == 0 {
			if pos >= len(script) {
				break
			}
			schedule("outside")
		} else if firedThisCycle {
			if c, ok := next(); ok && c%4 == 3 {
				schedule("outside")
			}
		}
		firedThisCycle = false
		e.Step()
	}
	r.now, r.pending, r.maxDepth, r.fired = e.Now(), e.Pending(), e.MaxQueueDepth(), e.EventsFired()
	return r
}

// checkScript runs one script through both engines, compares, and
// returns the situations the script reached.
func checkScript(t *testing.T, script []byte) map[string]bool {
	t.Helper()
	got, want := runScript(NewEngine(), script), runScript(&heapEngine{}, script)
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("script %v: firing %d is %+v, the heap gives %+v", script, i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("script %v: %d firings, the heap gives %d", script, len(got.log), len(want.log))
	}
	if got.now != want.now || got.pending != want.pending || got.maxDepth != want.maxDepth || got.fired != want.fired {
		t.Fatalf("script %v: (now, pending, max depth, fired) = (%d, %d, %d, %d), the heap gives (%d, %d, %d, %d)", script,
			got.now, got.pending, got.maxDepth, got.fired, want.now, want.pending, want.maxDepth, want.fired)
	}
	return got.reached
}

// engineSeedScripts are the hand-written cases, keyed by the situation
// each must reach; each is also a fuzz seed. Reading one: the first byte
// is the opening event's delay; a firing event reads a child count
// (byte % 3) and that many delays; after a cycle that fired anything the
// ticker and then the outside scheduler read one byte each.
var engineSeedScripts = map[string][]byte{
	caseDelay0InEvent: {1, 2, 0, 0, 2, 2, 0, 0, 0, 2},
	caseTickerNow:     {1, 1, 1, 0, 2, 1, 1, 0, 0, 2, 0, 1},
	caseRevolution:    {0, 2, 3, 4, 2, 1, 2, 5, 3, 2, 2, 4, 3, 2, 1, 1, 1, 1, 1},
	caseRevolutions:   {6, 2, 6 | 1<<3, 6 | 2<<3, 2, 6, 6 | 2<<3, 2, 3, 4, 1, 6 | 1<<3},
	caseFarAndNear:    {0, 2, 4, 1, 2, 3, 3, 2, 0, 0, 2, 0, 0, 2, 0, 4, 1, 0},
	caseOutsideNow:    {1, 2, 1, 1, 2, 3, 0, 1, 0, 1, 0, 2, 3, 0, 3, 0},
}

// TestEngineMatchesHeapOrder holds the calendar queue to the heap it
// replaced: same callbacks, same order, same cycles, same counters, over
// the seed cases and a few thousand random schedules.
func TestEngineMatchesHeapOrder(t *testing.T) {
	for name, script := range engineSeedScripts {
		if reached := checkScript(t, script); !reached[name] {
			t.Errorf("seed script %v does not reach %q (reached %v)", script, name, reached)
		}
	}
	rng := NewRNG(2026)
	n := 3000
	if testing.Short() {
		n = 300
	}
	reached := map[string]int{}
	for i := 0; i < n; i++ {
		script := make([]byte, 8+rng.Intn(120))
		for j := range script {
			script[j] = byte(rng.Intn(256))
		}
		for name := range checkScript(t, script) {
			reached[name]++
		}
	}
	for name := range engineSeedScripts {
		if reached[name] == 0 {
			t.Errorf("no random schedule reached %q", name)
		}
	}
}

// FuzzEngineMatchesHeapOrder lets the fuzzer write the schedule.
func FuzzEngineMatchesHeapOrder(f *testing.F) {
	for _, script := range engineSeedScripts {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { checkScript(t, script) })
}

// TestEngineTickerPhaseEvent pins the one place an event's cycle and its
// firing time differ. An event scheduled for the current cycle from a
// ticker cannot fire in it (the cycle's events are over): it fires at the
// start of the next cycle, ahead of every event that cycle owns, far ones
// included. Scheduled from outside Step, the same At(now) is an ordinary
// event of the cycle about to run.
func TestEngineTickerPhaseEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(name string) func(Cycle) {
		return func(now Cycle) {
			if now != wheelSize {
				t.Errorf("%s fired at cycle %d, want %d", name, now, wheelSize)
			}
			order = append(order, name)
		}
	}
	e.At(wheelSize, log("far"))
	e.Run(wheelSize - 1)
	e.At(wheelSize, log("near"))
	e.Register(TickFunc(func(now Cycle) {
		if now == wheelSize-1 {
			e.At(now, log("late-1"))
			e.At(now, log("late-2"))
		}
	}))
	e.Run(1)
	e.At(e.Now(), log("outside"))
	e.Run(1)
	want := []string{"late-1", "late-2", "far", "near", "outside"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}
}
