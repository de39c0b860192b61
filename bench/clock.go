package main

import "time"

// The reference host's effective core clock moves by 10-40% for minutes at
// a time (turbo headroom or a busy sibling thread; a guest cannot tell),
// and the simulator moves with it: over 30 s windows of one 25-minute
// recording, the fastest pass of the probe below correlates with the
// fastest repetition of a 64-node run, a 256-node run and the Monte Carlo
// at r = 0.85, 0.86 and 0.83, as well as those three correlate with each
// other (0.82-0.85), while probes of DRAM latency and memory bandwidth
// reach 0.6 and -0.5. A timing that is 30% apart between two runs of one
// commit cannot carry a 25% bound, so every time this benchmark reports is
// scaled to a nominal clock:
//
//	reported = wall x (nominal probe time / the run's fastest probe time)
//
// which is wall time counted in core cycles instead of seconds. Counts,
// shares and megabytes are not scaled.
const (
	// probeRounds is the length of one probe pass, about 2 ms.
	probeRounds = 1 << 20
	// nominalRoundNS is one round's time at the nominal clock: six cycles
	// at 3 GHz, a round number inside the reference host's own range
	// (1.8-2.4 ns).
	nominalRoundNS = 2.0
)

var probeSink uint64

// probe times one pass of the clock probe: a chain of dependent shifts and
// xors. No cache, memory or allocator state touches it, so its time is the
// core's clock and nothing else.
func probe() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < probeRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return time.Since(start)
}

// clock keeps a run's fastest probe pass. The fastest pass and the fastest
// repetition both belong to the run's best pace, whatever slowed the rest.
type clock struct{ best time.Duration }

// sample runs the probe a few times; callers do so between timed sections.
func (c *clock) sample() {
	for i := 0; i < 3; i++ {
		if d := probe(); c.best == 0 || d < c.best {
			c.best = d
		}
	}
}

// scale turns the run's wall times into times at the nominal clock.
func (c *clock) scale() float64 {
	if c.best == 0 {
		return 1
	}
	return nominalRoundNS * probeRounds / float64(c.best)
}

// nominal takes v, measured on the wall clock in the given unit, to the
// nominal clock: times stretch by scale, rates per second shrink by it,
// and anything else (counts, shares, megabytes) is left alone.
func nominal(unit string, v, scale float64) float64 {
	switch unit {
	case "s", "ms", "us", "ns":
		return v * scale
	case "1/s":
		return v / scale
	}
	return v
}
