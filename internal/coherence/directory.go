package coherence

import (
	"fmt"
	"math/bits"
	"sort"

	"fsoi/internal/cache"
	"fsoi/internal/sim"
	"fsoi/internal/stats"
)

// dirState enumerates the Table 2 directory states. Transients are named
// previous.next with the superscript encoded: D = waiting for data,
// A = waiting for acks only, DA = waiting for acks then sending data.
type dirState int

const (
	sDI     dirState = iota // not present
	sDV                     // valid in L2, no sharers
	sDS                     // shared by one or more L1s
	sDM                     // owned (E or M) by one L1
	tDIDSD                  // DI.DSD: memory fetch for a shared-mode miss
	tDIDMD                  // DI.DMD: memory fetch for an exclusive miss
	tDSDIA                  // DS.DIA: invalidating sharers to evict from L2
	tDSDMDA                 // DS.DMDA: invalidating sharers, then Data(M)
	tDSDMA                  // DS.DMA: invalidating sharers, then ExcAck
	tDMDSD                  // DM.DSD: downgrading the owner for a reader
	tDMDMD                  // DM.DMD: invalidating the owner for a new owner
	tDMDID                  // DM.DID: invalidating the owner to evict from L2
	tDMDSA                  // DM.DSA: owner wrote back while being downgraded
	tDMDMA                  // DM.DMA: owner wrote back while being invalidated
)

var dirStateNames = [...]string{
	"DI", "DV", "DS", "DM",
	"DI.DSD", "DI.DMD", "DS.DIA", "DS.DMDA", "DS.DMA",
	"DM.DSD", "DM.DMD", "DM.DID", "DM.DSA", "DM.DMA",
}

func (s dirState) String() string { return dirStateNames[s] }

// stable reports whether the state accepts new requests directly.
func (s dirState) stable() bool { return s <= sDM }

// sharerSet is a growable bitset of node ids holding S copies. The
// zero value is empty. It replaces the former single-uint64 mask,
// whose 64-node capacity silently dropped sharers at larger systems
// (1<<n is 0 in Go for shifts >= 64): a node past 63 was never
// recorded, its upgrade requests were forever reinterpreted as
// exclusive reads, and 256-node runs wedged with cores ≡ k (mod 64)
// spinning on misses that could not complete.
type sharerSet []uint64

// has reports membership.
func (s sharerSet) has(n int) bool {
	w := n >> 6
	return w < len(s) && s[w]&(1<<uint(n&63)) != 0
}

// add returns the set with node n included, growing in place when the
// backing array allows.
func (s sharerSet) add(n int) sharerSet {
	w := n >> 6
	for len(s) <= w {
		s = append(s, 0)
	}
	s[w] |= 1 << uint(n&63)
	return s
}

// clearAll empties the set, retaining the backing array for reuse.
func (s sharerSet) clearAll() sharerSet {
	for i := range s {
		s[i] = 0
	}
	return s
}

// forEach visits members in ascending node order — the same
// deterministic order the old 0..63 scan used.
func (s sharerSet) forEach(fn func(n int)) {
	for w, word := range s {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			fn(w<<6 | b)
		}
	}
}

// low64 returns the first 64 bits, for the Sharers introspection API.
func (s sharerSet) low64() uint64 {
	if len(s) == 0 {
		return 0
	}
	return s[0]
}

// dirEntry is the directory's record for one line homed at this slice.
type dirEntry struct {
	addr      cache.LineAddr
	state     dirState
	sharers   sharerSet // nodes with S copies
	owner     int       // valid in sDM and DM transients
	dirty     bool      // L2 copy newer than memory
	requester int       // requester of the in-flight transaction
	wantExc   bool      // in DI transients: exclusive-mode fetch
	acks      int       // outstanding InvAcks
	pending   []Msg     // "z"-stalled requests, FIFO
	lru       uint64
}

// DirConfig sizes a directory/L2 slice.
type DirConfig struct {
	SliceLines   int // L2 capacity per slice in lines (64KB => 1024)
	QueueEntries int // stalled-request capacity before NACKing (64)
	DataCycles   int // L2 data access latency (15)
	TagCycles    int // tag/control latency for Inv/Dwg issue
}

// PaperDir returns the Table 3 slice configuration.
func PaperDir() DirConfig {
	return DirConfig{SliceLines: 1024, QueueEntries: 64, DataCycles: 15, TagCycles: 4}
}

// DirStats counts directory activity.
type DirStats struct {
	Requests   int64
	Nacks      int64
	MemReads   int64
	MemWrites  int64
	InvSent    int64
	DwgSent    int64
	Evictions  int64
	SyncOps    int64
	BitPushes  int64
	StallDepth stats.Summary
}

// Directory is one home slice: the directory controller plus its L2 data
// array (modeled by capacity and latency) and the §5.1 synchronization
// manager.
type Directory struct {
	id      int
	cfg     DirConfig
	engine  sim.Scheduler
	tr      Transport
	memNode func(home int) int // memory-controller attach point
	entries map[cache.LineAddr]*dirEntry
	lruTick uint64
	stalled int
	stats   DirStats
	outbox  []Msg
	sync    *syncManager
	// lastSend serializes delayed sends per (destination, line): the L2
	// pipeline must not let a short tag access (Inv, 4 cycles) overtake
	// an earlier data access (Data(M), 15 cycles) to the same node about
	// the same line, or the §4.4 ordering the network provides would be
	// broken before the message ever reaches it. It holds only the sends
	// still in the pipeline: see delayedSend.fire.
	lastSend map[[2]uint64]sim.Cycle
	// sendFree recycles delayedSend records, last in first out.
	sendFree []*delayedSend
}

// delayedSend is one message in the L2 pipeline. The record carries the
// message and a callback bound once, when the record is first allocated,
// so a delayed send schedules no closure of its own; the directory runs
// in its node's context only, so the free list needs no guard.
type delayedSend struct {
	d      *Directory
	m      Msg
	fireFn func(now sim.Cycle)
}

// NewDirectory builds the home slice for node id.
func NewDirectory(id int, cfg DirConfig, engine sim.Scheduler, tr Transport, memNode func(int) int) *Directory {
	d := &Directory{
		id:       id,
		cfg:      cfg,
		engine:   engine,
		tr:       tr,
		memNode:  memNode,
		entries:  make(map[cache.LineAddr]*dirEntry),
		lastSend: make(map[[2]uint64]sim.Cycle),
	}
	d.sync = newSyncManager(d)
	return d
}

// Stats exposes the directory counters.
func (d *Directory) Stats() *DirStats { return &d.stats }

// Sync exposes the synchronization manager (system wiring).
func (d *Directory) Sync() *SyncAPI { return &SyncAPI{m: d.sync} }

// send queues a message with backpressure via the outbox.
func (d *Directory) send(m Msg) {
	if !d.tr.Send(m) {
		d.outbox = append(d.outbox, m)
	}
}

// sendKey names m's serialized (destination, line) stream in lastSend.
func sendKey(m Msg) [2]uint64 { return [2]uint64{uint64(m.To), uint64(m.Addr)} }

// sendAfter sends m after an L2 access delay, preserving per-(dst, line)
// issue order across differing pipeline depths.
func (d *Directory) sendAfter(delay int, m Msg) {
	at := d.engine.Now() + sim.Cycle(delay)
	k := sendKey(m)
	if prev, ok := d.lastSend[k]; ok && at <= prev {
		at = prev + 1
	}
	d.lastSend[k] = at
	var ds *delayedSend
	if n := len(d.sendFree); n > 0 {
		ds = d.sendFree[n-1]
		d.sendFree = d.sendFree[:n-1]
	} else {
		ds = &delayedSend{d: d}
		ds.fireFn = ds.fire
	}
	ds.m = m
	d.engine.At(at, ds.fireFn)
}

// fire leaves the pipeline: the record is recycled, the stream's
// lastSend entry retired, and the message sent. An entry only ever moves
// a send that would land at or before it, and a send lands its access
// latency after the cycle it is issued in: with both latencies nonzero
// (PaperDir's are 15 and 4) nothing issued from this cycle on can land as
// early as now, so an entry that still reads now is dead and lastSend
// stays as small as the pipeline. With a zero latency a send issued later
// this cycle could still land on now; then entries are kept.
func (ds *delayedSend) fire(now sim.Cycle) {
	d, m := ds.d, ds.m
	ds.m = Msg{}
	d.sendFree = append(d.sendFree, ds)
	if k := sendKey(m); d.lastSend[k] == now && d.cfg.DataCycles > 0 && d.cfg.TagCycles > 0 {
		delete(d.lastSend, k)
	}
	d.send(m)
}

// Tick drains the outbox.
func (d *Directory) Tick(now sim.Cycle) {
	for len(d.outbox) > 0 {
		if !d.tr.Send(d.outbox[0]) {
			return
		}
		d.outbox = d.outbox[1:]
	}
}

// entry fetches or creates the record for addr, evicting a victim when
// the slice is at capacity.
func (d *Directory) entry(addr cache.LineAddr, create bool) *dirEntry {
	e := d.entries[addr]
	if e == nil && create {
		e = &dirEntry{addr: addr, state: sDI, owner: -1}
		d.entries[addr] = e
		d.maybeEvict(addr)
	}
	if e != nil {
		d.lruTick++
		e.lru = d.lruTick
	}
	return e
}

// maybeEvict enforces slice capacity by starting the Repl flow on the
// least-recently-used stable entry (Table 2's Repl column).
func (d *Directory) maybeEvict(exclude cache.LineAddr) {
	if len(d.entries) <= d.cfg.SliceLines {
		return
	}
	// Walk candidates in address order: the LRU scan must not let map
	// iteration order pick among equal-lru entries, or two identical runs
	// can evict different lines.
	addrs := make([]cache.LineAddr, 0, len(d.entries))
	for a := range d.entries {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var victim *dirEntry
	for _, a := range addrs {
		e := d.entries[a]
		if e.addr == exclude || !e.state.stable() || len(e.pending) > 0 {
			continue
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	if victim == nil {
		return // all transient: allow transient over-capacity
	}
	d.stats.Evictions++
	switch victim.state {
	case sDI:
		delete(d.entries, victim.addr)
	case sDV:
		d.evictFinish(victim)
	case sDS:
		victim.state = tDSDIA
		victim.acks = d.invalidateSharers(victim, -1)
		if victim.acks == 0 {
			d.evictFinish(victim)
		}
	case sDM:
		victim.state = tDMDID
		d.sendInvOwner(victim)
	}
}

// evictFinish completes an L2 eviction: dirty data goes to memory.
func (d *Directory) evictFinish(e *dirEntry) {
	if e.dirty {
		d.stats.MemWrites++
		d.send(Msg{Type: MemWrite, Addr: e.addr, From: d.id, To: d.memNode(d.id), HasData: true})
	}
	delete(d.entries, e.addr)
}

// invalidateSharers sends Inv to every sharer but except (pass -1 to
// spare none) and returns the count, emptying the set. Sharer
// invalidations are elidable: the network confirmation of each Inv
// serves as the ack when the transport supports it.
func (d *Directory) invalidateSharers(e *dirEntry, except int) int {
	count := 0
	elide := d.tr.ConfirmationElision()
	e.sharers.forEach(func(n int) {
		if n == except {
			return
		}
		count++
		d.stats.InvSent++
		d.sendAfter(d.cfg.TagCycles, Msg{
			Type: Inv, Addr: e.addr, From: d.id, To: n,
			Requester: e.requester, Value: elide,
		})
	})
	e.sharers = e.sharers.clearAll()
	return count
}

// sendInvOwner invalidates the current owner; owners always return a
// real InvAck (with data when dirty), so no elision flag is set.
func (d *Directory) sendInvOwner(e *dirEntry) {
	d.stats.InvSent++
	d.sendAfter(d.cfg.TagCycles, Msg{Type: Inv, Addr: e.addr, From: d.id, To: e.owner, Requester: e.requester})
}

// Handle processes one incoming message.
func (d *Directory) Handle(m Msg, now sim.Cycle) {
	if TraceAddr != 0 && m.Addr == TraceAddr {
		e := d.entries[m.Addr]
		st := "DI"
		if e != nil {
			st = e.state.String()
		}
		trace("@%d dir%d <- %v from %d (data=%v) state=%s", now, d.id, m.Type, m.From, m.HasData, st)
	}
	if m.Type == SyncReq {
		d.sync.handle(m, now)
		return
	}
	if m.Type == MemAck {
		d.onMemAck(m, now)
		return
	}
	e := d.entry(m.Addr, true)
	switch m.Type {
	case ReqSh, ReqEx, ReqUpg:
		d.stats.Requests++
		if !e.state.stable() {
			d.stall(e, m)
			return
		}
		d.handleRequest(e, m, now)
	case WriteBack:
		d.onWriteBack(e, m, now)
	case InvAck:
		d.onInvAck(e, m, now)
	case DwgAck:
		d.onDwgAck(e, m, now)
	default:
		panic("coherence: directory received " + m.Type.String())
	}
}

// OnInvConfirm is called by the system layer when the network confirms
// delivery of an elided-ack Inv: the confirmation is the ack (§5.1).
func (d *Directory) OnInvConfirm(addr cache.LineAddr, now sim.Cycle) {
	e := d.entries[addr]
	if e == nil {
		return
	}
	d.onInvAck(e, Msg{Type: InvAck, Addr: addr, To: d.id}, now)
}

// stall queues a request on a busy line ("z"), or NACKs when queues are
// full (fetch-deadlock avoidance).
func (d *Directory) stall(e *dirEntry, m Msg) {
	if d.stalled >= d.cfg.QueueEntries || len(e.pending) >= 8 {
		d.stats.Nacks++
		d.send(Msg{Type: Nack, Addr: m.Addr, From: d.id, To: m.From})
		return
	}
	d.stalled++
	e.pending = append(e.pending, m)
	d.stats.StallDepth.Add(float64(len(e.pending)))
}

// resume processes the oldest stalled request once the line is stable.
func (d *Directory) resume(e *dirEntry, now sim.Cycle) {
	for e.state.stable() && len(e.pending) > 0 {
		m := e.pending[0]
		e.pending = e.pending[1:]
		d.stalled--
		d.handleRequest(e, m, now)
	}
}

// handleRequest implements the stable-state request columns.
func (d *Directory) handleRequest(e *dirEntry, m Msg, now sim.Cycle) {
	req := m.Type
	// Upgrade from a node the directory no longer counts as a sharer is
	// reinterpreted as an exclusive read ("(Req(Ex))").
	if req == ReqUpg && (e.state != sDS || !e.sharers.has(m.From)) {
		req = ReqEx
	}
	switch e.state {
	case sDI:
		e.requester = m.From
		e.wantExc = req != ReqSh
		e.state = tDIDSD
		if e.wantExc {
			e.state = tDIDMD
		}
		d.stats.MemReads++
		d.send(Msg{Type: ReqMem, Addr: e.addr, From: d.id, To: d.memNode(d.id)})
	case sDV:
		if req == ReqSh {
			d.grant(e, m.From, DataE, now)
		} else {
			d.grant(e, m.From, DataM, now)
		}
	case sDS:
		switch req {
		case ReqSh:
			e.sharers = e.sharers.add(m.From)
			d.sendAfter(d.cfg.DataCycles, Msg{Type: DataS, Addr: e.addr, From: d.id, To: m.From, HasData: true})
		case ReqEx:
			e.requester = m.From
			e.acks = d.invalidateSharers(e, m.From)
			if e.acks == 0 {
				d.grant(e, m.From, DataM, now)
			} else {
				e.state = tDSDMDA
			}
		case ReqUpg:
			e.requester = m.From
			e.acks = d.invalidateSharers(e, m.From)
			if e.acks == 0 {
				d.grantUpgrade(e, m.From)
				d.resume(e, now)
			} else {
				e.state = tDSDMA
			}
		}
	case sDM:
		if m.From == e.owner {
			// The owner's request crossed with its own writeback; wait
			// for the writeback to land, then reprocess.
			d.stall(e, m)
			return
		}
		e.requester = m.From
		if req == ReqSh {
			e.state = tDMDSD
			d.stats.DwgSent++
			d.sendAfter(d.cfg.TagCycles, Msg{Type: Dwg, Addr: e.addr, From: d.id, To: e.owner, Requester: m.From})
		} else {
			e.state = tDMDMD
			d.sendInvOwner(e)
		}
	default:
		panic(fmt.Sprintf("coherence: request %v in state %v", m.Type, e.state))
	}
}

// grant sends a data reply making the requester the owner.
func (d *Directory) grant(e *dirEntry, to int, t MsgType, now sim.Cycle) {
	e.state = sDM
	e.owner = to
	e.sharers = e.sharers.clearAll()
	d.sendAfter(d.cfg.DataCycles, Msg{Type: t, Addr: e.addr, From: d.id, To: to, HasData: true})
	d.resume(e, now)
}

// grantUpgrade sends ExcAck making the requester the owner.
func (d *Directory) grantUpgrade(e *dirEntry, to int) {
	e.state = sDM
	e.owner = to
	e.sharers = e.sharers.clearAll()
	d.sendAfter(d.cfg.TagCycles, Msg{Type: ExcAck, Addr: e.addr, From: d.id, To: to})
}

// onWriteBack implements the WriteBack column.
func (d *Directory) onWriteBack(e *dirEntry, m Msg, now sim.Cycle) {
	if m.HasData {
		e.dirty = true
	}
	switch e.state {
	case sDM:
		// save/DV. A writeback from anyone but the current owner is a
		// relic of an earlier epoch and is absorbed as data only.
		if m.From != e.owner {
			return
		}
		e.state = sDV
		e.owner = -1
		d.resume(e, now)
	case tDMDSD:
		e.state = tDMDSA // save/DM.DSA; the crossing DwgAck completes it
	case tDMDMD:
		e.state = tDMDMA // save/DM.DMA; the crossing InvAck completes it
	case tDMDID:
		e.state = tDSDIA // save/DS.DIA; the crossing InvAck evicts
		e.acks = 1
	default:
		// Stale writeback after the protocol already moved on: absorb.
	}
}

// onInvAck implements the InvAck column.
func (d *Directory) onInvAck(e *dirEntry, m Msg, now sim.Cycle) {
	if m.HasData {
		e.dirty = true
	}
	switch e.state {
	case tDSDIA:
		e.acks--
		if e.acks <= 0 {
			d.evictFinish(e)
		}
	case tDSDMDA:
		e.acks--
		if e.acks <= 0 {
			d.grant(e, e.requester, DataM, now)
		}
	case tDSDMA:
		e.acks--
		if e.acks <= 0 {
			d.grantUpgrade(e, e.requester)
			d.resume(e, now)
		}
	case tDMDMD:
		// save & fwd/DM: the owner's dirty data goes to the new owner.
		d.grant(e, e.requester, DataM, now)
	case tDMDMA:
		d.grant(e, e.requester, DataM, now)
	case tDMDID:
		// save & evict/DI.
		d.evictFinish(e)
	default:
		// Ack from a stale sharer (silently evicted earlier): ignore.
	}
}

// onDwgAck implements the DwgAck column.
func (d *Directory) onDwgAck(e *dirEntry, m Msg, now sim.Cycle) {
	if m.HasData {
		e.dirty = true
	}
	switch e.state {
	case tDMDSD:
		// save & fwd: owner and requester share the line. (The table
		// prints /DM here; the L1 side has downgraded to S, so the
		// consistent directory state is DS — see DESIGN.md.)
		e.state = sDS
		e.sharers = e.sharers.clearAll().add(e.owner).add(e.requester)
		e.owner = -1
		d.sendAfter(d.cfg.DataCycles, Msg{Type: DataS, Addr: e.addr, From: d.id, To: e.requester, HasData: true})
		d.resume(e, now)
	case tDMDSA:
		// Data(E)/DM: the owner wrote back first, so the requester gets
		// an exclusive copy.
		d.grant(e, e.requester, DataE, now)
	default:
		// Stale downgrade ack: ignore.
	}
}

// onMemAck implements the MemAck column: "repl & fwd/DM".
func (d *Directory) onMemAck(m Msg, now sim.Cycle) {
	e := d.entries[m.Addr]
	if e == nil {
		return
	}
	switch e.state {
	case tDIDSD:
		d.grant(e, e.requester, DataE, now)
	case tDIDMD:
		d.grant(e, e.requester, DataM, now)
	default:
		// Memory data racing a faster resolution: keep the L2 copy.
		if e.state == sDI {
			e.state = sDV
			d.resume(e, now)
		}
	}
}

// DumpTransients lists entries stuck in transient states (diagnostics).
func (d *Directory) DumpTransients(prefix string) string {
	addrs := make([]cache.LineAddr, 0, len(d.entries))
	for a := range d.entries {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	out := ""
	for _, a := range addrs {
		e := d.entries[a]
		if !e.state.stable() || len(e.pending) > 0 {
			out += fmt.Sprintf("%s line %x: %v acks=%d pending=%d owner=%d sharers=%x req=%d\n",
				prefix, uint64(e.addr), e.state, e.acks, len(e.pending), e.owner, e.sharers, e.requester)
		}
	}
	return out
}

// EntryState reports the directory state for addr (tests).
func (d *Directory) EntryState(addr cache.LineAddr) string {
	if e := d.entries[addr]; e != nil {
		return e.state.String()
	}
	return "DI"
}

// Sharers reports the sharer bitset and owner for addr (tests).
func (d *Directory) Sharers(addr cache.LineAddr) (sharers uint64, owner int) {
	if e := d.entries[addr]; e != nil {
		return e.sharers.low64(), e.owner
	}
	return 0, -1
}
