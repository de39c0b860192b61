package obs

import "fsoi/internal/stats"

// ClassName names a packet class with its stable on-wire identifier.
func ClassName(c uint8) string { return classNames[classSlot(c)] }

// LaneName names a lane with its stable on-wire identifier.
func LaneName(l int8) string { return laneNames[laneSlot(l)] }

// CountByKind tallies events per kind in kind order.
func (r *Recorder) CountByKind() [numKinds]int64 {
	var out [numKinds]int64
	for w := r.run(); len(w.cur) > 0; w.advance() {
		for _, e := range w.cur {
			if int(e.Kind) < len(out) {
				out[e.Kind]++
			}
		}
	}
	return out
}

// find returns k's record, nil when the link was never noted.
func (g *Registry) find(k Link) *linkRec {
	return g.links.find(linkKey(int32(k.Src), int32(k.Dst)))
}

// LinkCollisions reports the collision-event count recorded for one link.
func (g *Registry) LinkCollisions(k Link) int64 {
	if r := g.find(k); r != nil {
		return r.coll
	}
	return 0
}

// LinkDepth reports the deepest backoff attempt recorded for one link.
func (g *Registry) LinkDepth(k Link) int64 {
	if r := g.find(k); r != nil {
		return r.depth
	}
	return 0
}

// Links reports how many distinct src->dst links were observed.
func (g *Registry) Links() int {
	n := 0
	for i := range g.links.len() {
		if g.links.rec(i).hist != nil {
			n++
		}
	}
	return n
}

// Class exposes one class histogram.
func (g *Registry) Class(c uint8) *stats.Histogram {
	if c > ClassData {
		c = ClassMeta
	}
	return g.byClass[c]
}
