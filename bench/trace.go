package main

import (
	"encoding/json"
	"time"
)

// span is one timed call from the harness into a layer's public surface.
// Times are offsets from the tracer's origin, so a run's spans line up on
// one axis; Parent names the enclosing span ("" at top level).
type span struct {
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Rep    int           `json:"rep"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Self   time.Duration `json:"self_ns"` // Dur minus the part child spans cover
}

// tracer records spans in memory; they are written out when the run ends.
// A nil tracer is the untraced state: span just calls fn.
type tracer struct {
	origin time.Time
	rep    int
	spans  []span
	open   []int // indexes of the enclosing spans, innermost last
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span times fn as a child of whatever span is open.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := ""
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].Name
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: t.rep})
	t.open = append(t.open, idx)
	start := time.Now()
	fn()
	dur := time.Since(start)
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[idx]
	s.Start, s.Dur = start.Sub(t.origin), dur
	s.Self += dur
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].Self -= dur
	}
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events plus "M" metadata naming each process), the format obs exports
// packet traces in, so both load in chrome://tracing or Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents renders one traced run as process pid, its spans shifted by
// offset (when the run started on the suite's clock).
func chromeEvents(pid int, process string, offset time.Duration, spans []span) []chromeEvent {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	out := []chromeEvent{{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": process}}}
	for _, s := range spans {
		out = append(out, chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X", Ts: us(offset + s.Start), Dur: us(s.Dur), Pid: pid, Tid: 1,
			Args: map[string]any{"parent": s.Parent, "rep": s.Rep, "self_us": us(s.Self)},
		})
	}
	return out
}

func marshalChrome(events []chromeEvent) ([]byte, error) {
	return json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
}
