//go:build race

package system

// raceEnabled is set when the race detector is built in, whose
// instrumentation changes allocation counts.
const raceEnabled = true
