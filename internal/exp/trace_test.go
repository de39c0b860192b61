package exp

import (
	"bytes"
	"fmt"
	"testing"

	"fsoi/internal/obs"
)

// bufSink collects trace output in memory, mirroring the fileSink in
// cmd/experiments.
type bufSink struct {
	buf bytes.Buffer
	err error
}

func (s *bufSink) WriteRun(label string, rec *obs.Recorder) {
	if s.err != nil {
		return
	}
	if _, err := fmt.Fprintf(&s.buf, "{\"run\":%q}\n", label); err != nil {
		s.err = err
		return
	}
	s.err = obs.WriteJSONL(&s.buf, rec)
}

// TestTraceDoesNotChangeResults: running an experiment with tracing on
// must render the exact same tables as without — observation is a pure
// read of the simulation.
func TestTraceDoesNotChangeResults(t *testing.T) {
	plain := Fig5(tiny())
	traced := tiny()
	sink := &bufSink{}
	traced.Trace = sink
	withTrace := Fig5(traced)
	if sink.err != nil {
		t.Fatal(sink.err)
	}
	if plain.Text != withTrace.Text {
		t.Fatalf("tracing changed the rendered table:\n--- plain ---\n%s--- traced ---\n%s",
			plain.Text, withTrace.Text)
	}
	for k, v := range plain.Values {
		if withTrace.Values[k] != v {
			t.Fatalf("value %q changed under tracing: %g vs %g", k, v, withTrace.Values[k])
		}
	}
	if sink.buf.Len() == 0 {
		t.Fatal("sink received no trace output")
	}
	if !bytes.Contains(sink.buf.Bytes(), []byte(`{"run":"job000 jacobi fsoi n16"}`)) {
		t.Fatalf("run separator missing or mislabeled:\n%.200s", sink.buf.String())
	}
}

// TestTraceByteIdenticalAcrossWorkers is the acceptance check for the
// parallel path: the trace file produced at one worker equals the one
// produced at four, byte for byte, because runSuite drains recorders by
// job number after the barrier.
func TestTraceByteIdenticalAcrossWorkers(t *testing.T) {
	trace := func(workers int) []byte {
		o := tiny()
		o.Workers = workers
		sink := &bufSink{}
		o.Trace = sink
		Fig9(o) // two configurations per app: exercises the app-major job order
		if sink.err != nil {
			t.Fatal(sink.err)
		}
		return sink.buf.Bytes()
	}
	serial := trace(1)
	parallel := trace(4)
	if len(serial) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trace bytes differ between 1 and 4 workers (%d vs %d bytes)",
			len(serial), len(parallel))
	}
}
