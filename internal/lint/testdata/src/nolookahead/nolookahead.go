// Package nolookahead routes events through the shard-aware router but
// never declares the Lookahead window the sharded engine needs to size
// its epochs. Linted under the virtual path fsoi/internal/adversary, a
// simulation package.
package nolookahead

import (
	"fsoi/internal/noc"
	"fsoi/internal/sim"
)

// Net schedules cross-node work without bounding it.
type Net struct {
	engine sim.Scheduler
}

func (n *Net) deliver(node int, at sim.Cycle) {
	noc.ScheduleAt(n.engine, node, at, func(sim.Cycle) {}) // want "shardsafety: package routes cross-node events through noc.ScheduleAt but declares no Lookahead method"
}
