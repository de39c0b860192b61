package coherence

import (
	"slices"

	"fsoi/internal/cache"
	"fsoi/internal/sim"
	"fsoi/internal/stats"
)

// Transport carries protocol messages between controllers. The system
// layer implements it on top of a noc.Network and exposes the FSOI
// confirmation-channel capabilities when present.
type Transport interface {
	// Send queues a message; false means backpressure (the caller's
	// outbox retries next cycle).
	Send(m Msg) bool
	// ConfirmationElision reports whether clean invalidation acks can be
	// replaced by the network's hardware confirmation (§5.1).
	ConfirmationElision() bool
	// BooleanSubscription reports whether sync booleans can ride
	// reserved confirmation mini-cycles (§5.1).
	BooleanSubscription() bool
	// SendBit pushes one boolean over the confirmation lane.
	SendBit(from, to int, tag uint64, value bool)
}

// transKind is an L1 transient state from Table 2.
type transKind int

const (
	tISD transKind = iota // I.SD: awaiting shared-mode data
	tIMD                  // I.MD: awaiting exclusive data
	tSMA                  // S.MA: awaiting upgrade ack
)

func (t transKind) String() string {
	switch t {
	case tISD:
		return "I.SD"
	case tIMD:
		return "I.MD"
	default:
		return "S.MA"
	}
}

// waiter is a core access blocked on an outstanding transaction.
type waiter struct {
	write bool
	done  func(now sim.Cycle)
}

// l1Pending is the controller-side record of one transient line: an
// entry of the miss-status file. Records are recycled through L1.free
// with their waiters capacity: Access takes one, complete returns it.
// Between the two the only holders are trans, install's retry closure,
// which ends in complete, and onNack's, which only asks whether the
// transaction is still the one it was refused for.
type l1Pending struct {
	addr    cache.LineAddr
	state   transKind
	waiters []waiter
	issued  sim.Cycle // when the request was first sent (for stats)
	retries int       // NACKs this transaction has taken, for its backoff
}

// L1Config sizes an L1 controller.
type L1Config struct {
	Lines     int // capacity in 64B lines (paper-scaled 8KB => 128)
	Ways      int
	MSHRs     int
	HitCycles int // array access latency (2)
}

// PaperL1 returns the Table 3 configuration, scaled to 64-byte lines.
func PaperL1() L1Config {
	return L1Config{Lines: 128, Ways: 2, MSHRs: 8, HitCycles: 2}
}

// L1Stats counts controller activity.
type L1Stats struct {
	Hits, Misses  int64
	Invalidations int64
	Writebacks    int64
	Nacks         int64
	ElidedAcks    int64
	MissHist      *stats.Histogram // reply-latency distribution (Figure 5)
}

// L1 is one private L1 cache controller implementing the Table 2 rows.
type L1 struct {
	id     int
	cfg    L1Config
	engine *sim.Engine
	rng    *sim.RNG
	array  *cache.Cache
	// trans is the miss-status file: the lines mid-transaction, at most
	// cfg.MSHRs of them, searched linearly; a completed one leaves by
	// swap-remove.
	trans  []*l1Pending
	tr     Transport
	home   func(cache.LineAddr) int
	stats  L1Stats
	outbox []Msg
	watch  map[cache.LineAddr][]func(now sim.Cycle) // nil until the first OnInvalidate
	free   []*l1Pending                             // completed records, reused last in first out
}

// NewL1 builds a controller for node id. Given a spent controller (the
// node's L1 in a finished simulation, which must not be used again), it
// resets and returns that one: its miss-status records, outbox, watch
// table and histogram keep their storage, and so does its cache array,
// emptied, when the geometry is the same; otherwise the array is new.
func NewL1(id int, cfg L1Config, engine *sim.Engine, rng *sim.RNG, tr Transport, home func(cache.LineAddr) int, donor ...*L1) *L1 {
	var l *L1
	if len(donor) > 0 && donor[0] != nil {
		l = donor[0]
		array := l.array
		if l.cfg.Lines == cfg.Lines && l.cfg.Ways == cfg.Ways {
			array.Reset()
		} else {
			array = nil
		}
		// A transaction still open when the last run stopped is scrubbed
		// as complete scrubs one.
		free := l.free
		for _, p := range l.trans {
			clear(p.waiters)
			*p = l1Pending{waiters: p.waiters[:0]}
			free = append(free, p)
		}
		clear(l.trans)
		clear(l.watch)
		*l = L1{
			rng: l.rng, array: array, trans: l.trans[:0], outbox: l.outbox[:0], watch: l.watch, free: free,
			stats: L1Stats{MissHist: l.stats.MissHist},
		}
	} else {
		l = new(L1)
	}
	if l.array == nil {
		l.array = cache.New(cfg.Lines, cfg.Ways)
	}
	l.id, l.cfg, l.engine, l.tr, l.home = id, cfg, engine, tr, home
	l.rng = rng.NewStream("l1", l.rng)
	l.stats.MissHist = stats.NewHistogram(5, 60, l.stats.MissHist)
	return l
}

// Stats exposes the controller counters.
func (l *L1) Stats() *L1Stats { return &l.stats }

// OnInvalidate registers a one-shot callback fired the next time addr is
// invalidated; the cpu layer uses it to re-check spin variables and
// re-registers on every spin iteration.
func (l *L1) OnInvalidate(addr cache.LineAddr, fn func(now sim.Cycle)) {
	if l.watch == nil {
		l.watch = make(map[cache.LineAddr][]func(now sim.Cycle))
	}
	l.watch[addr] = append(l.watch[addr], fn)
}

func (l *L1) fireWatch(addr cache.LineAddr, now sim.Cycle) {
	if len(l.watch) == 0 {
		return // nobody spins: no lookup on the invalidation path
	}
	fns := l.watch[addr]
	if len(fns) == 0 {
		return
	}
	delete(l.watch, addr)
	for _, fn := range fns {
		fn(now)
	}
}

// Outstanding reports in-flight transactions (used to drain at barriers).
func (l *L1) Outstanding() int { return len(l.trans) }

// pending returns addr's transaction, or nil when the line is stable.
func (l *L1) pending(addr cache.LineAddr) *l1Pending {
	for _, p := range l.trans {
		if p.addr == addr {
			return p
		}
	}
	return nil
}

// send queues m, falling back to the outbox under backpressure.
func (l *L1) send(m Msg) {
	if !l.tr.Send(m) {
		l.outbox = append(l.outbox, m)
	}
}

// drain re-offers an outbox's messages to the transport, in order, until
// one is refused, and returns what is left, moved to the front so the slice
// keeps its capacity.
func drain(outbox []Msg, tr Transport) []Msg {
	sent := 0
	for sent < len(outbox) && tr.Send(outbox[sent]) {
		sent++
	}
	return outbox[:copy(outbox, outbox[sent:])]
}

// Tick drains the outbox, which most cycles is empty.
func (l *L1) Tick(now sim.Cycle) {
	if len(l.outbox) > 0 {
		l.outbox = drain(l.outbox, l.tr)
	}
}

// Access performs a load (write=false) or store (write=true) on behalf of
// the core; done fires when the access commits. It returns false only
// when the miss could not even be registered (cfg.MSHRs transactions
// already outstanding) — the core retries next cycle.
func (l *L1) Access(addr cache.LineAddr, write bool, done func(now sim.Cycle)) bool {
	now := l.engine.Now()
	if p := l.pending(addr); p != nil {
		// "z": the line is mid-transaction; merge.
		p.waiters = append(p.waiters, waiter{write: write, done: done})
		return true
	}
	line := l.array.Lookup(addr)
	hit := line != nil && (line.State == cache.Modified || line.State == cache.Exclusive ||
		(!write && line.State == cache.Shared))
	if hit {
		if write {
			line.State = cache.Modified // E->M silent upgrade
		}
		l.stats.Hits++
		l.engine.At(now+sim.Cycle(l.cfg.HitCycles), done)
		return true
	}
	if len(l.trans) >= l.cfg.MSHRs {
		return false
	}
	l.stats.Misses++
	var p *l1Pending
	if k := len(l.free); k > 0 {
		p, l.free = l.free[k-1], l.free[:k-1]
	} else {
		p = new(l1Pending)
	}
	p.addr, p.issued = addr, now
	p.waiters = append(p.waiters, waiter{write: write, done: done})
	var req MsgType
	switch {
	case line != nil && line.State == cache.Shared && write:
		// S + write: upgrade.
		p.state = tSMA
		req = ReqUpg
	case write:
		p.state = tIMD
		req = ReqEx
	default:
		p.state = tISD
		req = ReqSh
	}
	l.trans = append(l.trans, p)
	l.send(l.request(req, addr))
	return true
}

// request builds an L1->directory request message.
func (l *L1) request(t MsgType, addr cache.LineAddr) Msg {
	return Msg{Type: t, Addr: addr, From: l.id, To: l.home(addr), Requester: l.id}
}

// Handle processes one incoming protocol message (Table 2, L1 rows).
func (l *L1) Handle(m Msg, now sim.Cycle) {
	if TraceAddr != 0 && m.Addr == TraceAddr {
		st := l.HasLine(m.Addr).String()
		if p := l.pending(m.Addr); p != nil {
			st += "/" + p.state.String()
		}
		trace("@%d l1-%d <- %v from %d (data=%v) state=%s", now, l.id, m.Type, m.From, m.HasData, st)
	}
	switch m.Type {
	case DataS, DataE, DataM:
		l.onData(m, now)
	case ExcAck:
		l.onExcAck(m, now)
	case Inv:
		l.onInv(m, now)
	case Dwg:
		l.onDwg(m, now)
	case Nack:
		l.onNack(m, now)
	case SyncResp:
		// Routed by the cpu layer through RegisterSyncHandler; ignore
		// here (the system layer delivers sync messages directly).
	default:
		panic("coherence: L1 received " + m.Type.String())
	}
}

// onData installs a fill ("save & read/S or E", "save & write/M").
func (l *L1) onData(m Msg, now sim.Cycle) {
	p := l.pending(m.Addr)
	if p == nil {
		// A stale fill after Nack-retry races; drop it.
		return
	}
	var st cache.State
	switch m.Type {
	case DataS:
		st = cache.Shared
	case DataE:
		st = cache.Exclusive
	case DataM:
		st = cache.Modified
	}
	l.install(m.Addr, st, p, now)
}

// install places the fill, performing victim eviction, then completes
// waiters. If every way in the set is mid-transaction the fill retries a
// few cycles later.
func (l *L1) install(addr cache.LineAddr, st cache.State, p *l1Pending, now sim.Cycle) {
	victim := l.array.Victim(addr)
	if victim.State != cache.Invalid && l.pending(victim.Addr) != nil {
		l.engine.At(now+4, func(at sim.Cycle) { l.install(addr, st, p, at) })
		return
	}
	evicted := l.array.Install(addr, st)
	l.evict(evicted)
	l.complete(addr, p, now)
}

// evict issues the Table 2 "Repl" action for a displaced line: M lines
// write back their data, E lines announce a clean writeback, S lines
// leave silently (the directory's stale sharer bit is corrected by a
// later Inv finding state I).
func (l *L1) evict(old cache.Line) {
	switch old.State {
	case cache.Modified:
		l.stats.Writebacks++
		l.send(Msg{Type: WriteBack, Addr: old.Addr, From: l.id, To: l.home(old.Addr), HasData: true, Requester: l.id})
	case cache.Exclusive:
		l.stats.Writebacks++
		l.send(Msg{Type: WriteBack, Addr: old.Addr, From: l.id, To: l.home(old.Addr), Requester: l.id})
	}
}

// complete finishes a transaction: waiters run in order; a write waiter
// finding insufficient permission re-enters Access (starting an upgrade).
func (l *L1) complete(addr cache.LineAddr, p *l1Pending, now sim.Cycle) {
	last := len(l.trans) - 1
	l.trans[slices.Index(l.trans, p)] = l.trans[last]
	l.trans = l.trans[:last]
	l.stats.MissHist.Add(int64(now - p.issued))
	line := l.array.Peek(addr)
	at := now + sim.Cycle(l.cfg.HitCycles)
	for _, w := range p.waiters {
		w := w
		switch {
		case !w.write:
			l.engine.At(at, w.done)
		case line != nil && (line.State == cache.Exclusive || line.State == cache.Modified):
			line.State = cache.Modified
			l.engine.At(at, w.done)
		default:
			// Write waiter on a shared fill: re-access to upgrade.
			l.engine.At(at, func(c sim.Cycle) { l.AccessRetry(addr, true, w.done) })
		}
	}
	// Cleared so the free list pins no done callback.
	clear(p.waiters)
	*p = l1Pending{waiters: p.waiters[:0]}
	l.free = append(l.free, p)
}

// AccessRetry is Access but retries every cycle while the miss-status
// file is full.
func (l *L1) AccessRetry(addr cache.LineAddr, write bool, done func(now sim.Cycle)) {
	if !l.Access(addr, write, done) {
		l.engine.After(1, func(sim.Cycle) { l.AccessRetry(addr, write, done) })
	}
}

// onExcAck grants an upgrade ("do write/M").
func (l *L1) onExcAck(m Msg, now sim.Cycle) {
	p := l.pending(m.Addr)
	if p == nil || p.state != tSMA {
		return
	}
	if line := l.array.Peek(m.Addr); line != nil {
		line.State = cache.Modified
	}
	l.complete(m.Addr, p, now)
}

// onInv implements the Inv column: owners always answer with a real
// InvAck (carrying data when dirty); shared or absent holders elide the
// ack when the network confirms delivery in hardware.
func (l *L1) onInv(m Msg, now sim.Cycle) {
	l.stats.Invalidations++
	ack := Msg{Type: InvAck, Addr: m.Addr, From: l.id, To: m.From, Requester: m.Requester}
	st := l.array.Invalidate(m.Addr)
	switch st {
	case cache.Modified:
		ack.HasData = true
		l.send(ack)
	case cache.Exclusive:
		l.send(ack)
	default:
		if p := l.pending(m.Addr); p != nil && p.state == tSMA {
			// S.MA + Inv: the upgrade lost a race; it now needs data
			// (I.MD). The directory reinterprets the queued upgrade.
			p.state = tIMD
		}
		// The directory marks sharer invalidations whose ack rides the
		// hardware confirmation (Msg.Value doubles as the elide flag).
		if m.Value && l.tr.ConfirmationElision() {
			l.stats.ElidedAcks++
		} else {
			l.send(ack)
		}
	}
	l.fireWatch(m.Addr, now)
}

// onDwg implements the Dwg column.
func (l *L1) onDwg(m Msg, now sim.Cycle) {
	ack := Msg{Type: DwgAck, Addr: m.Addr, From: l.id, To: m.From, Requester: m.Requester}
	if line := l.array.Peek(m.Addr); line != nil {
		switch line.State {
		case cache.Modified:
			ack.HasData = true
			line.State = cache.Shared
		case cache.Exclusive:
			line.State = cache.Shared
		}
	}
	l.send(ack)
}

// onNack retries the original request after a randomized delay (Table
// 2's Retry column; NACKs probabilistically avoid fetch deadlock). The
// delay doubles with each NACK the transaction takes, up to 64x, like
// the optical lanes' collision backoff: with a fixed window, 64-node
// jacobi on L0 retried without end.
func (l *L1) onNack(m Msg, now sim.Cycle) {
	p := l.pending(m.Addr)
	if p == nil {
		return
	}
	l.stats.Nacks++
	var req MsgType
	switch p.state {
	case tISD:
		req = ReqSh
	case tIMD:
		req = ReqEx
	default:
		req = ReqUpg
	}
	delay := sim.Cycle(8+l.rng.Intn(24)) << min(p.retries, 6)
	p.retries++
	// A record is recycled, so the pointer alone no longer names the
	// transaction; a later one on the same record was issued later.
	issued := p.issued
	l.engine.At(now+delay, func(sim.Cycle) {
		if l.pending(m.Addr) == p && p.issued == issued {
			l.send(l.request(req, m.Addr))
		}
	})
}

// HasLine reports the stable state of addr (Invalid when absent),
// used by tests and the cpu spin loops.
func (l *L1) HasLine(addr cache.LineAddr) cache.State {
	if line := l.array.Peek(addr); line != nil {
		return line.State
	}
	return cache.Invalid
}
