package coherence

import "fsoi/internal/cache"

// Sharers reports the sharer bitset and owner for addr.
func (d *Directory) Sharers(addr cache.LineAddr) (sharers uint64, owner int) {
	if e := d.lookup(addr); e.dirEntry != nil {
		return e.sharers, int(e.owner)
	}
	return 0, -1
}

// LockHeld reports whether lock id is held.
func (d *Directory) LockHeld(id int) bool { return d.sync.lock(id).held }

// DecodeTag splits a confirmation-lane tag.
func DecodeTag(tag uint64) (id int, barrier, update bool) {
	barrier = tag&tagBarrierBit != 0
	update = tag&tagUpdateBit != 0
	id = int((tag &^ tagBarrierBit) >> 1)
	return id, barrier, update
}
