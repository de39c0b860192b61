package coherence

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"fsoi/internal/cache"
	"fsoi/internal/sim"
	"fsoi/internal/table"
)

// dirState enumerates the Table 2 directory states. Transients are named
// previous.next with the superscript encoded: D = waiting for data,
// A = waiting for acks only, DA = waiting for acks then sending data.
type dirState uint8

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

// dirEntry is the directory's record for one line homed at this slice:
// 40 bytes and no pointers, so the slab that holds the records is never
// scanned by the garbage collector. What does not fit lives out of line in
// the Directory, found through the record: its stall queue by the stall
// index, its sharers past node 63 by the record's slab position (see
// wideWords).
//
// The sharer set is a bitset of every node id, not a single 64-bit mask:
// a mask's 64-node capacity silently dropped sharers at larger systems
// (1<<n is 0 in Go for shifts >= 64), so a node past 63 was never
// recorded, its upgrade requests were forever reinterpreted as exclusive
// reads, and 256-node runs wedged with cores ≡ k (mod 64) spinning on
// misses that could not complete. Its first word is inline, so up to 64
// nodes a line's sharers cost nothing out of line.
type dirEntry struct {
	addr      cache.LineAddr
	lru       uint64
	sharers   uint64 // nodes 0..63 with S copies
	owner     int32  // valid in sDM and DM transients
	requester int32  // requester of the in-flight transaction
	acks      int32  // outstanding InvAcks
	stall     uint16 // 1 + the index of the line's stall queue, 0 when none
	state     dirState
	flags     uint8 // fDirty, fLive
}

// dirEntry flags.
const (
	fDirty uint8 = 1 << iota // L2 copy newer than memory
	fLive                    // holds a line (clear: on the slab's free list, or never used)
)

// maxStalled is how many requests one line may hold stalled ("z") before
// the next is NACKed.
const maxStalled = 8

// rec is a record together with its slab position, which locates the
// record's out-of-line sharer words. The embedded pointer makes a rec read
// like the record itself.
type rec struct {
	*dirEntry
	ref int32
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
	Requests      int64
	Nacks         int64
	MemReads      int64
	MemWrites     int64
	InvSent       int64
	DwgSent       int64
	Evictions     int64
	SyncOps       int64
	BitPushes     int64
	MaxStallDepth int // most requests stalled on one line at once
}

// Directory is one home slice: the directory controller plus its L2 data
// array (modeled by capacity and latency) and the §5.1 synchronization
// manager.
type Directory struct {
	id      int
	cfg     DirConfig
	engine  *sim.Engine
	tr      Transport
	memNode func(home int) int // memory-controller attach point
	// entries finds a line's record: the value locates it in slab as
	// chunk<<chunkBits | offset. The slab's chunks never move, so a
	// *dirEntry stays good while its line is in the directory; chunk sizes
	// double from minChunk to 1<<chunkBits records, so a slice that homes
	// a handful of lines pays for a handful. freed lists the records L2
	// evictions gave back, reused last in first out.
	entries table.Table[int32]
	slab    [][]dirEntry
	freed   []int32
	// wide holds the sharer words past a record's inline one, stride per
	// record in slab order (slabPos). It stays empty until a sharer past
	// node 63 is added, and stride grows to the widest sharer seen.
	wide   []uint64
	stride int
	// queues holds the stall queues, FIFO each; a record with stalled
	// requests names one. A drained queue goes on queueFree, keeping its
	// backing array, so a slice allocates only as many queues as it ever
	// had lines with stalled requests at once, at most QueueEntries.
	queues    [][]Msg
	queueFree []uint16
	lruTick   uint64
	stalled   int
	stats     DirStats
	outbox    []Msg
	sync      *syncManager
	// lastSend serializes delayed sends per (destination, line): the L2
	// pipeline must not let a short tag access (Inv, 4 cycles) overtake
	// an earlier data access (Data(M), 15 cycles) to the same node about
	// the same line, or the §4.4 ordering the network provides would be
	// broken before the message ever reaches it. It holds only the sends
	// still in the pipeline (see delayedSend.fire), a handful, so it is a
	// slice searched linearly and an entry leaves by swap-remove.
	lastSend []sendStamp
	// sendFree recycles delayedSend records, last in first out.
	sendFree []*delayedSend
}

// Slab chunk sizing, in records: chunk c holds min(minChunk<<c,
// 1<<chunkBits).
const (
	minChunkBits = 2
	minChunk     = 1 << minChunkBits
	chunkBits    = 6
)

// slabPos numbers the record at ref densely in slab order: the first
// chunkBits-minChunkBits chunks double in size, the rest are full.
func slabPos(ref int32) int {
	const ramp = chunkBits - minChunkBits
	c, o := int(ref>>chunkBits), int(ref&(1<<chunkBits-1))
	if c < ramp {
		return minChunk*(1<<c-1) + o
	}
	return minChunk*(1<<ramp-1) + (c-ramp)<<chunkBits + o
}

// sendStamp is the cycle the latest send of one (destination, line) stream
// leaves the L2 pipeline.
type sendStamp struct {
	to   int
	addr cache.LineAddr
	at   sim.Cycle
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

// NewDirectory builds the home slice for node id. Given a spent slice (a
// finished simulation's, which must not be used again), it resets and
// returns that one: the record slab, entries table and free list, the
// out-of-line sharer words, the stall queues, the delayed-send records,
// the outbox and the sync tables keep their storage, emptied. The
// records still come out of the slab in the order a new slice's would:
// chunk by chunk, each chunk the size the ramp gives its index; so do the
// stall queues' indices. A nil donor is ignored.
func NewDirectory(id int, cfg DirConfig, engine *sim.Engine, tr Transport, memNode func(int) int, donor ...*Directory) *Directory {
	var d *Directory
	if len(donor) > 0 && donor[0] != nil {
		d = donor[0]
		// Emptied chunks and queues stay in their slices' backing arrays
		// past the end, where alloc and stall reopen them in order.
		for i, chunk := range d.slab {
			clear(chunk)
			d.slab[i] = chunk[:0]
		}
		for i, q := range d.queues {
			d.queues[i] = q[:0]
		}
		d.entries.Reset()
		// addSharer takes the backing array past the end to be zero.
		clear(d.wide[:cap(d.wide)])
		clear(d.sync.locks)
		clear(d.sync.barriers)
		*d = Directory{
			entries: d.entries, slab: d.slab[:0], freed: d.freed[:0], wide: d.wide[:0],
			queues: d.queues[:0], queueFree: d.queueFree[:0], outbox: d.outbox[:0],
			sync: d.sync, lastSend: d.lastSend[:0], sendFree: d.sendFree,
		}
	} else {
		d = new(Directory)
		d.sync = newSyncManager(d)
	}
	d.id, d.cfg, d.engine, d.tr, d.memNode = id, cfg, engine, tr, memNode
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

// stamp returns the index of m's (destination, line) stream in lastSend,
// or -1.
func (d *Directory) stamp(m Msg) int {
	for i := range d.lastSend {
		if st := &d.lastSend[i]; st.to == m.To && st.addr == m.Addr {
			return i
		}
	}
	return -1
}

// sendAfter sends m after an L2 access delay, preserving per-(dst, line)
// issue order across differing pipeline depths.
func (d *Directory) sendAfter(delay int, m Msg) {
	at := d.engine.Now() + sim.Cycle(delay)
	if i := d.stamp(m); i >= 0 {
		if st := &d.lastSend[i]; at <= st.at {
			at = st.at + 1
		}
		d.lastSend[i].at = at
	} else {
		d.lastSend = append(d.lastSend, sendStamp{to: m.To, addr: m.Addr, at: at})
	}
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
	if i := d.stamp(m); i >= 0 && d.lastSend[i].at == now && d.cfg.DataCycles > 0 && d.cfg.TagCycles > 0 {
		last := len(d.lastSend) - 1
		d.lastSend[i] = d.lastSend[last]
		d.lastSend = d.lastSend[:last]
	}
	d.send(m)
}

// Tick drains the outbox, which most cycles is empty.
func (d *Directory) Tick(now sim.Cycle) {
	if len(d.outbox) > 0 {
		d.outbox = drain(d.outbox, d.tr)
	}
}

// at resolves a table value to its record.
func (d *Directory) at(ref int32) rec {
	return rec{&d.slab[ref>>chunkBits][ref&(1<<chunkBits-1)], ref}
}

// lookup returns the record for addr, with a nil dirEntry when the line is
// not in the directory.
func (d *Directory) lookup(addr cache.LineAddr) rec {
	if ref := d.entries.Ref(uint64(addr)); ref != nil {
		return d.at(*ref)
	}
	return rec{}
}

// alloc returns the slab position of a blank record: the last one an L2
// eviction gave back, else the next of the slab's last chunk, opening a
// chunk twice that one's size (up to 1<<chunkBits) when it is full.
func (d *Directory) alloc() int32 {
	if n := len(d.freed); n > 0 {
		ref := d.freed[n-1]
		d.freed = d.freed[:n-1]
		return ref
	}
	c := len(d.slab) - 1
	if c < 0 || len(d.slab[c]) == cap(d.slab[c]) {
		size := minChunk
		if c >= 0 {
			size = min(2*cap(d.slab[c]), 1<<chunkBits)
		}
		if spare := d.slab[:cap(d.slab)]; c+1 < len(spare) && cap(spare[c+1]) == size {
			// An emptied chunk a donor left (NewDirectory); past the end of
			// a slab append grew, the spare headers are nil.
			d.slab = spare[:c+2]
		} else {
			d.slab = append(d.slab, make([]dirEntry, 0, size))
		}
		c++
	}
	d.slab[c] = d.slab[c][:len(d.slab[c])+1]
	return int32(c<<chunkBits | (len(d.slab[c]) - 1))
}

// remove takes e's line out of the directory and recycles the record.
// Requests still stalled on the line (an eviction's transient stalls
// them like any other) are NACKed, oldest first, and leave the stalled
// count: their requesters retry, and find the line gone.
func (d *Directory) remove(e rec) {
	if e.stall != 0 {
		for _, m := range d.queue(e) {
			d.nack(m)
			d.stalled--
		}
		d.freeQueue(e)
	}
	d.freed = append(d.freed, e.ref)
	d.entries.Delete(uint64(e.addr))
	d.clearSharers(e)
	*e.dirEntry = dirEntry{}
}

// entry fetches or creates the record for addr, evicting a victim when
// the slice is at capacity.
func (d *Directory) entry(addr cache.LineAddr) rec {
	e := d.lookup(addr)
	if e.dirEntry == nil {
		ref := d.alloc()
		*d.entries.Put(uint64(addr)) = ref
		e = d.at(ref)
		e.addr, e.state, e.owner, e.flags = addr, sDI, -1, fLive
		d.maybeEvict(addr)
	}
	d.lruTick++
	e.lru = d.lruTick
	return e
}

// maybeEvict enforces slice capacity by starting the Repl flow on the
// least-recently-used stable entry (Table 2's Repl column).
func (d *Directory) maybeEvict(exclude cache.LineAddr) {
	if d.entries.Len() <= d.cfg.SliceLines {
		return
	}
	// Every record's lru is the tick of its own last access, so the least
	// is unique and the choice does not depend on where the slab happens
	// to keep its records.
	var victim rec
	for c, chunk := range d.slab {
		for i := range chunk {
			e := &chunk[i]
			if e.flags&fLive == 0 || e.addr == exclude || !e.state.stable() || e.stall != 0 {
				continue
			}
			if victim.dirEntry == nil || e.lru < victim.lru {
				victim = rec{e, int32(c<<chunkBits | i)}
			}
		}
	}
	if victim.dirEntry == nil {
		return // all transient: allow transient over-capacity
	}
	d.stats.Evictions++
	switch victim.state {
	case sDI:
		d.remove(victim)
	case sDV:
		d.evictFinish(victim)
	case sDS:
		victim.state = tDSDIA
		victim.acks = int32(d.invalidateSharers(victim, -1))
		if victim.acks == 0 {
			d.evictFinish(victim)
		}
	case sDM:
		victim.state = tDMDID
		d.sendInvOwner(victim)
	}
}

// evictFinish completes an L2 eviction: dirty data goes to memory.
func (d *Directory) evictFinish(e rec) {
	if e.flags&fDirty != 0 {
		d.stats.MemWrites++
		d.send(Msg{Type: MemWrite, Addr: e.addr, From: d.id, To: d.memNode(d.id), HasData: true})
	}
	d.remove(e)
}

// invalidateSharers sends Inv to every sharer but except (pass -1 to
// spare none) and returns the count, emptying the set. Sharer
// invalidations are elidable: the network confirmation of each Inv
// serves as the ack when the transport supports it.
func (d *Directory) invalidateSharers(e rec, except int) int {
	count := 0
	elide := d.tr.ConfirmationElision()
	wide := d.wideWords(e.ref)
	// Ascending node order: the inline word, then the out-of-line ones.
	for w := 0; w <= len(wide); w++ {
		word := e.sharers
		if w > 0 {
			word = wide[w-1]
		}
		for ; word != 0; word &= word - 1 {
			n := w<<6 | bits.TrailingZeros64(word)
			if n == except {
				continue
			}
			count++
			d.stats.InvSent++
			d.sendAfter(d.cfg.TagCycles, Msg{
				Type: Inv, Addr: e.addr, From: d.id, To: n,
				Requester: int(e.requester), Value: elide,
			})
		}
	}
	d.clearSharers(e)
	return count
}

// wideWords returns the out-of-line sharer words of the record at ref, for
// nodes 64 and up (word w-1 holds nodes 64w..64w+63), or nil when none
// were ever allocated for it.
func (d *Directory) wideWords(ref int32) []uint64 {
	if d.stride == 0 {
		return nil
	}
	base := slabPos(ref) * d.stride
	if base >= len(d.wide) {
		return nil
	}
	return d.wide[base : base+d.stride]
}

// hasSharer reports whether node n holds an S copy of e's line.
func (d *Directory) hasSharer(e rec, n int) bool {
	w := n >> 6
	if w == 0 {
		return e.sharers&(1<<uint(n)) != 0
	}
	wide := d.wideWords(e.ref)
	return w <= len(wide) && wide[w-1]&(1<<uint(n&63)) != 0
}

// addSharer records node n as holding an S copy of e's line, allocating
// out-of-line words up to e's own when n is past 63.
func (d *Directory) addSharer(e rec, n int) {
	w := n >> 6
	if w == 0 {
		e.sharers |= 1 << uint(n)
		return
	}
	if w > d.stride {
		d.restride(w)
	}
	base := slabPos(e.ref) * d.stride
	if end := base + d.stride; end > len(d.wide) {
		// Past the old length the backing array was never written: zero.
		d.wide = slices.Grow(d.wide, end-len(d.wide))[:end]
	}
	d.wide[base+w-1] |= 1 << uint(n&63)
}

// restride widens every record's out-of-line words to w. A slice restrides
// at most once per 64 nodes of the system.
func (d *Directory) restride(w int) {
	if d.stride > 0 {
		recs := len(d.wide) / d.stride
		wide := make([]uint64, recs*w)
		for r := range recs {
			copy(wide[r*w:], d.wide[r*d.stride:(r+1)*d.stride])
		}
		d.wide = wide
	}
	d.stride = w
}

// clearSharers empties e's sharer set, in line and out.
func (d *Directory) clearSharers(e rec) {
	e.sharers = 0
	clear(d.wideWords(e.ref))
}

// sendInvOwner invalidates the current owner; owners always return a
// real InvAck (with data when dirty), so no elision flag is set.
func (d *Directory) sendInvOwner(e rec) {
	d.stats.InvSent++
	d.sendAfter(d.cfg.TagCycles, Msg{Type: Inv, Addr: e.addr, From: d.id, To: int(e.owner), Requester: int(e.requester)})
}

// Handle processes one incoming message.
func (d *Directory) Handle(m Msg, now sim.Cycle) {
	if TraceAddr != 0 && m.Addr == TraceAddr {
		trace("@%d dir%d <- %v from %d (data=%v) state=%s", now, d.id, m.Type, m.From, m.HasData, d.EntryState(m.Addr))
	}
	if m.Type == SyncReq {
		d.sync.handle(m, now)
		return
	}
	if m.Type == MemAck {
		d.onMemAck(m, now)
		return
	}
	e := d.entry(m.Addr)
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
	e := d.lookup(addr)
	if e.dirEntry == nil {
		return
	}
	d.onInvAck(e, Msg{Type: InvAck, Addr: addr, To: d.id}, now)
}

// queue returns the requests stalled on e's line, oldest first.
func (d *Directory) queue(e rec) []Msg {
	if e.stall == 0 {
		return nil
	}
	return d.queues[e.stall-1]
}

// freeQueue empties e's stall queue and puts it on the free list.
func (d *Directory) freeQueue(e rec) {
	i := e.stall - 1
	d.queues[i] = d.queues[i][:0]
	d.queueFree = append(d.queueFree, i)
	e.stall = 0
}

// stall queues a request on a busy line ("z"), or NACKs when queues are
// full (fetch-deadlock avoidance).
func (d *Directory) stall(e rec, m Msg) {
	if d.stalled >= d.cfg.QueueEntries || len(d.queue(e)) >= maxStalled {
		d.nack(m)
		return
	}
	d.stalled++
	if e.stall == 0 {
		if n := len(d.queueFree); n > 0 {
			e.stall = d.queueFree[n-1] + 1
			d.queueFree = d.queueFree[:n-1]
		} else if n := len(d.queues); n < cap(d.queues) {
			d.queues = d.queues[:n+1] // an emptied queue a donor left (NewDirectory)
			e.stall = uint16(n + 1)
		} else {
			d.queues = append(d.queues, nil)
			e.stall = uint16(len(d.queues))
		}
	}
	q := append(d.queues[e.stall-1], m)
	d.queues[e.stall-1] = q
	d.stats.MaxStallDepth = max(d.stats.MaxStallDepth, len(q))
}

// nack refuses request m; its requester retries after a short delay.
func (d *Directory) nack(m Msg) {
	d.stats.Nacks++
	d.send(Msg{Type: Nack, Addr: m.Addr, From: d.id, To: m.From})
}

// resume processes the oldest stalled request once the line is stable.
func (d *Directory) resume(e rec, now sim.Cycle) {
	for e.state.stable() && e.stall != 0 {
		q := d.queues[e.stall-1]
		m := q[0]
		d.queues[e.stall-1] = q[:copy(q, q[1:])]
		if len(q) == 1 {
			d.freeQueue(e)
		}
		d.stalled--
		d.handleRequest(e, m, now)
	}
}

// handleRequest implements the stable-state request columns.
func (d *Directory) handleRequest(e rec, m Msg, now sim.Cycle) {
	req := m.Type
	// Upgrade from a node the directory no longer counts as a sharer is
	// reinterpreted as an exclusive read ("(Req(Ex))").
	if req == ReqUpg && (e.state != sDS || !d.hasSharer(e, m.From)) {
		req = ReqEx
	}
	switch e.state {
	case sDI:
		e.requester = int32(m.From)
		e.state = tDIDSD
		if req != ReqSh {
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
			d.addSharer(e, m.From)
			d.sendAfter(d.cfg.DataCycles, Msg{Type: DataS, Addr: e.addr, From: d.id, To: m.From, HasData: true})
		case ReqEx:
			e.requester = int32(m.From)
			e.acks = int32(d.invalidateSharers(e, m.From))
			if e.acks == 0 {
				d.grant(e, m.From, DataM, now)
			} else {
				e.state = tDSDMDA
			}
		case ReqUpg:
			e.requester = int32(m.From)
			e.acks = int32(d.invalidateSharers(e, m.From))
			if e.acks == 0 {
				d.grantUpgrade(e, m.From)
				d.resume(e, now)
			} else {
				e.state = tDSDMA
			}
		}
	case sDM:
		if m.From == int(e.owner) {
			// The owner's request crossed with its own writeback; wait
			// for the writeback to land, then reprocess.
			d.stall(e, m)
			return
		}
		e.requester = int32(m.From)
		if req == ReqSh {
			e.state = tDMDSD
			d.stats.DwgSent++
			d.sendAfter(d.cfg.TagCycles, Msg{Type: Dwg, Addr: e.addr, From: d.id, To: int(e.owner), Requester: m.From})
		} else {
			e.state = tDMDMD
			d.sendInvOwner(e)
		}
	default:
		panic(fmt.Sprintf("coherence: request %v in state %v", m.Type, e.state))
	}
}

// grant sends a data reply making the requester the owner.
func (d *Directory) grant(e rec, to int, t MsgType, now sim.Cycle) {
	e.state = sDM
	e.owner = int32(to)
	d.clearSharers(e)
	d.sendAfter(d.cfg.DataCycles, Msg{Type: t, Addr: e.addr, From: d.id, To: to, HasData: true})
	d.resume(e, now)
}

// grantUpgrade sends ExcAck making the requester the owner.
func (d *Directory) grantUpgrade(e rec, to int) {
	e.state = sDM
	e.owner = int32(to)
	d.clearSharers(e)
	d.sendAfter(d.cfg.TagCycles, Msg{Type: ExcAck, Addr: e.addr, From: d.id, To: to})
}

// onWriteBack implements the WriteBack column.
func (d *Directory) onWriteBack(e rec, m Msg, now sim.Cycle) {
	if m.HasData {
		e.flags |= fDirty
	}
	switch e.state {
	case sDM:
		// save/DV. A writeback from anyone but the current owner is a
		// relic of an earlier epoch and is absorbed as data only.
		if m.From != int(e.owner) {
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
func (d *Directory) onInvAck(e rec, m Msg, now sim.Cycle) {
	if m.HasData {
		e.flags |= fDirty
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
			d.grant(e, int(e.requester), DataM, now)
		}
	case tDSDMA:
		e.acks--
		if e.acks <= 0 {
			d.grantUpgrade(e, int(e.requester))
			d.resume(e, now)
		}
	case tDMDMD:
		// save & fwd/DM: the owner's dirty data goes to the new owner.
		d.grant(e, int(e.requester), DataM, now)
	case tDMDMA:
		d.grant(e, int(e.requester), DataM, now)
	case tDMDID:
		// save & evict/DI.
		d.evictFinish(e)
	default:
		// Ack from a stale sharer (silently evicted earlier): ignore.
	}
}

// onDwgAck implements the DwgAck column.
func (d *Directory) onDwgAck(e rec, m Msg, now sim.Cycle) {
	if m.HasData {
		e.flags |= fDirty
	}
	switch e.state {
	case tDMDSD:
		// save & fwd: owner and requester share the line. (The table
		// prints /DM here; the L1 side has downgraded to S, so the
		// consistent directory state is DS — see DESIGN.md.)
		e.state = sDS
		d.clearSharers(e)
		d.addSharer(e, int(e.owner))
		d.addSharer(e, int(e.requester))
		e.owner = -1
		d.sendAfter(d.cfg.DataCycles, Msg{Type: DataS, Addr: e.addr, From: d.id, To: int(e.requester), HasData: true})
		d.resume(e, now)
	case tDMDSA:
		// Data(E)/DM: the owner wrote back first, so the requester gets
		// an exclusive copy.
		d.grant(e, int(e.requester), DataE, now)
	default:
		// Stale downgrade ack: ignore.
	}
}

// onMemAck implements the MemAck column: "repl & fwd/DM".
func (d *Directory) onMemAck(m Msg, now sim.Cycle) {
	e := d.lookup(m.Addr)
	if e.dirEntry == nil {
		return
	}
	switch e.state {
	case tDIDSD:
		d.grant(e, int(e.requester), DataE, now)
	case tDIDMD:
		d.grant(e, int(e.requester), DataM, now)
	default:
		// Memory data racing a faster resolution: keep the L2 copy.
		if e.state == sDI {
			e.state = sDV
			d.resume(e, now)
		}
	}
}

// DumpTransients lists entries stuck in transient states, in address
// order (diagnostics).
func (d *Directory) DumpTransients(prefix string) string {
	var stuck []rec
	for c, chunk := range d.slab {
		for i := range chunk {
			if e := &chunk[i]; e.flags&fLive != 0 && (!e.state.stable() || e.stall != 0) {
				stuck = append(stuck, rec{e, int32(c<<chunkBits | i)})
			}
		}
	}
	slices.SortFunc(stuck, func(a, b rec) int { return cmp.Compare(a.addr, b.addr) })
	out := ""
	for _, e := range stuck {
		out += fmt.Sprintf("%s line %x: %v acks=%d pending=%d owner=%d sharers=%x req=%d\n",
			prefix, uint64(e.addr), e.state, e.acks, len(d.queue(e)), e.owner, append([]uint64{e.sharers}, d.wideWords(e.ref)...), e.requester)
	}
	return out
}

// EntryState reports the directory state for addr (tests).
func (d *Directory) EntryState(addr cache.LineAddr) string {
	if e := d.lookup(addr); e.dirEntry != nil {
		return e.state.String()
	}
	return "DI"
}
