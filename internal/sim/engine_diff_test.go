package sim

import (
	"fmt"
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

// checkScript runs one script through both engines, and through an
// engine NewEngine rebuilt from a spent one, compares, and returns the
// situations the script reached.
func checkScript(t *testing.T, script []byte) map[string]bool {
	t.Helper()
	want := runScript(&heapEngine{}, script)
	compareScript(t, script, "", runScript(NewEngine(), script), want)
	got := runScript(NewEngine(spentEngine()), script)
	compareScript(t, script, "reused ", got, want)
	return got.reached
}

// compareScript fails the test where an engine's run of script departs
// from the heap's.
func compareScript(t *testing.T, script []byte, label string, got, want *scriptRun) {
	t.Helper()
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("%sscript %v: firing %d is %+v, the heap gives %+v", label, script, i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("%sscript %v: %d firings, the heap gives %d", label, script, len(got.log), len(want.log))
	}
	if got.now != want.now || got.pending != want.pending || got.maxDepth != want.maxDepth || got.fired != want.fired {
		t.Fatalf("%sscript %v: (now, pending, max depth, fired) = (%d, %d, %d, %d), the heap gives (%d, %d, %d, %d)", label, script,
			got.now, got.pending, got.maxDepth, got.fired, want.now, want.pending, want.maxDepth, want.fired)
	}
}

// spentEngine is an engine as a finished simulation leaves it: cycles in,
// stopped, with events pending on the wheel and in the far heap, an
// always-on ticker and a woken sleeper registered, every counter moved.
func spentEngine() *Engine {
	e := NewEngine()
	e.Register(TickFunc(func(Cycle) {}))
	Sleeper(e, TickFunc(func(Cycle) {})).At(30)
	for i := Cycle(0); i < 40; i++ {
		e.At(i, func(Cycle) {})
		e.At(i+3*wheelSize, func(Cycle) {})
	}
	e.Run(20)
	e.Stop()
	return e
}

// TestEngineReuseIsNew: NewEngine given a spent engine hands back that
// engine's storage, cleared to the last slot, and every other field as a
// new engine has it.
func TestEngineReuseIsNew(t *testing.T) {
	spent := spentEngine()
	nodes, far, tickers := cap(spent.nodes), cap(spent.far.a), cap(spent.tickers)
	e := NewEngine(spent)
	if e != spent || cap(e.nodes) != nodes || cap(e.far.a) != far || cap(e.tickers) != tickers {
		t.Fatal("the rebuilt engine does not keep the spent one's storage")
	}
	for i, n := range e.nodes[:cap(e.nodes)] {
		if n.fn != nil || n.next != 0 {
			t.Fatalf("wheel node %d still holds %+v", i, n)
		}
	}
	for i, ev := range e.far.a[:cap(e.far.a)] {
		if ev.fn != nil || ev.at != 0 || ev.seq != 0 {
			t.Fatalf("far heap slot %d still holds an event", i)
		}
	}
	for i, s := range e.tickers[:cap(e.tickers)] {
		if s.t != nil || s.due != 0 || s.sleeps {
			t.Fatalf("ticker slot %d still holds %+v", i, s)
		}
	}
	got, want := *e, *NewEngine()
	if len(got.nodes) != len(want.nodes) || len(got.far.a) != 0 || len(got.tickers) != 0 {
		t.Fatalf("lengths (%d, %d, %d), want (%d, 0, 0)", len(got.nodes), len(got.far.a), len(got.tickers), len(want.nodes))
	}
	got.nodes, got.far, got.tickers = nil, eventQueue{}, nil
	want.nodes = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt engine %+v, a new one is %+v", got, want)
	}
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

// everyCycle is the engine before sleepers: heapEngine with Run and
// Stop, calling every ticker on every cycle. It runs a sleeper as an
// always-on ticker that does its work only when a wake is pending, which
// is the schedule the sleeper rules promise, and is the reference the
// sleeper scripts hold Engine to.
type everyCycle struct {
	heapEngine
	stopped bool
}

func (e *everyCycle) Stop() { e.stopped = true }

func (e *everyCycle) Run(maxCycles Cycle) Cycle {
	start := e.now
	for e.now-start < maxCycles && !e.stopped {
		e.Step()
	}
	return e.now - start
}

func (e *everyCycle) sleeper(t Ticker) func(Cycle) {
	pending := never
	e.Register(TickFunc(func(now Cycle) {
		if pending <= now {
			pending = never
			t.Tick(now)
		}
	}))
	return func(at Cycle) { pending = min(pending, at) }
}

// sleepyEngine is the Engine under test, with Sleeper as a method so the
// two engines drive alike.
type sleepyEngine struct{ *Engine }

func (e sleepyEngine) sleeper(t Ticker) func(Cycle) { return Sleeper(e.Engine, t).At }

// sleepScripted is what a sleeper script drives.
type sleepScripted interface {
	scriptedEngine
	Run(maxCycles Cycle) Cycle
	Stop()
	sleeper(t Ticker) func(Cycle)
}

// The situations the sleeper seed scripts exist to reach.
const (
	caseWakeFromEvent  = "a sleeper woken from an event"
	caseWakeBeforeTurn = "a sleeper woken for now by a ticker before its turn"
	caseWakeAfterTurn  = "a sleeper woken for now by a ticker at or after its turn"
	caseStopInRun      = "Stop inside Run"
	caseRunLimit       = "Run ending at its limit with nothing due there"
	caseJump           = "Run crossing idle cycles with no always-on ticker"
)

// sleepRun is everything observable about one sleeper script.
type sleepRun struct {
	log               []firing // id < 0: sleeper -id-1 ran
	runs              []Cycle  // what each Run returned
	now               Cycle
	pending, maxDepth int
	fired             uint64
	reached           map[string]bool
	alwaysOnTicker    int
}

// runSleepScript interprets script against e. The first byte sets up the
// tickers: one to three sleepers and, when bit 2 is set, an always-on
// ticker at a position the next byte picks. Then, until the script runs
// out, the outer loop reads a byte per round: Run with a limit decoded from
// it, or Step, after waking a sleeper or scheduling an event from
// outside. A firing event logs itself and reads a byte: wake a sleeper
// for a delay decoded from the next byte, schedule a child, or Stop. A
// sleeper's work logs itself and reads a byte: wake a sleeper (itself
// included) for a decoded delay, or schedule an event.
func runSleepScript(e sleepScripted, script []byte) *sleepRun {
	if len(script) > 256 {
		script = script[:256]
	}
	r := &sleepRun{reached: map[string]bool{}}
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(script) {
			return 0, false
		}
		c := script[pos]
		pos++
		return c, true
	}
	setup, _ := next()
	nSleepers := 1 + int(setup%3)
	always := setup&4 != 0
	where, _ := next()
	wakes := make([]func(Cycle), nSleepers)
	turn := make([]int, nSleepers) // each sleeper's index among the tickers
	ids, position := 0, 0
	running := -1 // the ticker whose turn it is, -1 outside the tick phase
	var event func() func(Cycle)
	wake := func(from string, c byte) {
		k := int(c) % nSleepers
		d, ok := next()
		if !ok {
			return
		}
		delay := scriptDelay(d)
		switch {
		case from == "event":
			r.reached[caseWakeFromEvent] = true
		case from == "ticker" && delay == 0 && running < turn[k]:
			r.reached[caseWakeBeforeTurn] = true
		case from == "ticker" && delay == 0:
			r.reached[caseWakeAfterTurn] = true
		}
		wakes[k](e.Now() + delay)
	}
	schedule := func() {
		if d, ok := next(); ok {
			e.At(e.Now()+scriptDelay(d), event())
		}
	}
	event = func() func(Cycle) {
		id := ids
		ids++
		return func(now Cycle) {
			r.log = append(r.log, firing{id: id, at: now, pending: e.Pending()})
			c, ok := next()
			if !ok {
				return
			}
			switch c % 8 {
			case 0, 1, 2:
				wake("event", c>>3)
			case 3, 4:
				schedule()
			case 5:
				e.Stop()
			}
		}
	}
	register := func() {
		if always && position == int(where)%(nSleepers+1) {
			always = false
			r.alwaysOnTicker++
			at := position
			e.Register(TickFunc(func(Cycle) { running = at }))
			position++
		}
	}
	for k := range wakes {
		register()
		k, at := k, position
		turn[k] = at
		wakes[k] = e.sleeper(TickFunc(func(now Cycle) {
			running = at
			r.log = append(r.log, firing{id: -k - 1, at: now, pending: e.Pending()})
			if c, ok := next(); ok {
				switch c % 4 {
				case 0, 1:
					wake("ticker", c>>2)
				case 2:
					schedule()
				}
			}
		}))
		position++
	}
	register()
	for rounds := 0; rounds < 64; rounds++ {
		c, ok := next()
		if !ok {
			break
		}
		switch c % 3 {
		case 0:
			wake("outside", c>>2)
		case 1:
			schedule()
		}
		running = -1
		if c&0x80 != 0 {
			e.Step()
			continue
		}
		limit := Cycle(c>>2&0x1f) * 67
		logged, from := len(r.log), e.Now()
		ran := e.Run(limit)
		r.runs = append(r.runs, ran)
		if ran < limit {
			r.reached[caseStopInRun] = true
		}
		last := from - 1
		for _, f := range r.log[logged:] {
			if f.at > last+1 && r.alwaysOnTicker == 0 {
				r.reached[caseJump] = true
			}
			last = f.at
		}
		if ran == limit && ran > 0 && last < e.Now()-1 && r.alwaysOnTicker == 0 {
			r.reached[caseRunLimit] = true
		}
	}
	r.now, r.pending, r.maxDepth, r.fired = e.Now(), e.Pending(), e.MaxQueueDepth(), e.EventsFired()
	return r
}

// checkSleepScript runs one script through Engine and the every-cycle
// reference, compares, and returns the situations the script reached.
func checkSleepScript(t *testing.T, script []byte) map[string]bool {
	t.Helper()
	got, want := runSleepScript(sleepyEngine{NewEngine()}, script), runSleepScript(&everyCycle{}, script)
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("script %v: step %d of the work log is %+v, calling every ticker every cycle gives %+v", script, i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("script %v: %d log entries, calling every ticker every cycle gives %d", script, len(got.log), len(want.log))
	}
	if !reflect.DeepEqual(got.runs, want.runs) {
		t.Fatalf("script %v: Run returned %v, calling every ticker every cycle gives %v", script, got.runs, want.runs)
	}
	if got.now != want.now || got.pending != want.pending || got.maxDepth != want.maxDepth || got.fired != want.fired {
		t.Fatalf("script %v: (now, pending, max depth, fired) = (%d, %d, %d, %d), calling every ticker every cycle gives (%d, %d, %d, %d)", script,
			got.now, got.pending, got.maxDepth, got.fired, want.now, want.pending, want.maxDepth, want.fired)
	}
	return got.reached
}

// sleepSeedScripts are the hand-written cases, keyed by the situation
// each must reach; each is also a fuzz seed.
var sleepSeedScripts = map[string][]byte{
	caseWakeFromEvent:  {210, 162, 109, 186, 232, 55},
	caseWakeBeforeTurn: {154, 117, 75, 223, 77, 192},
	caseWakeAfterTurn:  {210, 138, 75, 120, 108, 184},
	caseStopInRun:      {41, 98, 85, 99, 173},
	caseRunLimit:       {96, 143, 103, 46},
	caseJump:           {73, 115, 121, 234},
}

// TestSleepersMatchAlwaysOn holds sleeping tickers and Run's jump to the
// every-cycle engine: the same work in the same cycles and order, the
// same Run results and the same counters, over the seed cases and a few
// thousand random scripts.
func TestSleepersMatchAlwaysOn(t *testing.T) {
	for name, script := range sleepSeedScripts {
		if reached := checkSleepScript(t, script); !reached[name] {
			t.Errorf("seed script %v does not reach %q (reached %v)", script, name, reached)
		}
	}
	rng := NewRNG(2027)
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
		for name := range checkSleepScript(t, script) {
			reached[name]++
		}
	}
	for name := range sleepSeedScripts {
		if reached[name] == 0 {
			t.Errorf("no random script reached %q", name)
		}
	}
}

// FuzzSleepersMatchAlwaysOn lets the fuzzer write the sleeper script.
func FuzzSleepersMatchAlwaysOn(f *testing.F) {
	for _, script := range sleepSeedScripts {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { checkSleepScript(t, script) })
}

// TestSleeperWakeRules pins the rules by example. Sleeper a is
// registered before b. A wake for now from b's turn (after a's) runs a
// next cycle; from a's turn (before b's) it runs b this cycle. A wake
// from an event or from outside Step runs the sleeper in the cycle asked
// for, a past one meaning now; each run consumes every wake pending, and
// a sleeper runs nowhere else. Run jumps the idle cycles and returns the
// cycles elapsed, its limit included.
func TestSleeperWakeRules(t *testing.T) {
	e := NewEngine()
	var log []string
	var a, b Wake
	a = Sleeper(e, TickFunc(func(now Cycle) {
		log = append(log, fmt.Sprintf("a@%d", now))
		if now == 6 {
			b.At(now)
		}
	}))
	b = Sleeper(e, TickFunc(func(now Cycle) {
		log = append(log, fmt.Sprintf("b@%d", now))
		if now == 5 {
			a.At(now - 3)
		}
	}))
	b.At(5)
	e.At(10, func(Cycle) { a.At(12); a.At(14) })
	if ran := e.Run(13); ran != 13 {
		t.Fatalf("Run(13) returned %d", ran)
	}
	a.At(0)
	if ran := e.Run(1000); ran != 1000 {
		t.Fatalf("Run(1000) returned %d", ran)
	}
	want := []string{"b@5", "a@6", "b@6", "a@12", "a@13"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("work log %v, want %v", log, want)
	}
	if d := a.Due(); d != never {
		t.Fatalf("a is due at %d after its runs, want asleep", d)
	}
	if e.Now() != 1013 {
		t.Fatalf("now = %d, want 1013", e.Now())
	}
}
