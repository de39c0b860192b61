package coherence

import "fsoi/internal/sim"

// Tag layout for confirmation-lane boolean pushes: the high bit selects
// lock vs barrier, bit 0 selects reply vs update, the middle bits carry
// the object id.
const (
	tagBarrierBit = uint64(1) << 62
	tagUpdateBit  = uint64(1)
)

// LockTag returns the confirmation-lane tag for lock id.
func LockTag(id int, update bool) uint64 {
	t := uint64(id) << 1
	if update {
		t |= tagUpdateBit
	}
	return t
}

// BarrierTag returns the confirmation-lane tag for barrier id.
func BarrierTag(id int, update bool) uint64 {
	return LockTag(id, update) | tagBarrierBit
}

// lockVar is directory-side lock state: the boolean "line" of §5.1 whose
// single-bit value rides reserved confirmation mini-cycles.
type lockVar struct {
	held bool
	subs uint64 // subscriber bitset awaiting an update push
}

// barrierVar is directory-side barrier state.
type barrierVar struct {
	count  int
	target int
	subs   uint64
}

// syncManager implements the §5.1 ll/sc optimization at the home
// directory: store-conditional values travel inside requests, replies and
// updates travel on reserved confirmation mini-cycles, and subscribers
// form the update set of the single-bit "cache line".
//
// Most directories home no sync object, so each table is made on its
// first entry.
type syncManager struct {
	d        *Directory
	locks    map[int]*lockVar
	barriers map[int]*barrierVar
}

func newSyncManager(d *Directory) *syncManager { return &syncManager{d: d} }

func (s *syncManager) lock(id int) *lockVar {
	l := s.locks[id]
	if l == nil {
		if s.locks == nil {
			s.locks = make(map[int]*lockVar)
		}
		l = &lockVar{}
		s.locks[id] = l
	}
	return l
}

func (s *syncManager) barrier(id int) *barrierVar {
	b := s.barriers[id]
	if b == nil {
		if s.barriers == nil {
			s.barriers = make(map[int]*barrierVar)
		}
		b = &barrierVar{target: 1}
		s.barriers[id] = b
	}
	return b
}

// reply sends a single-bit response: over the confirmation lane when the
// transport supports it, as a meta packet otherwise.
func (s *syncManager) reply(to int, tag uint64, value bool) {
	if s.d.tr.BooleanSubscription() {
		s.d.tr.SendBit(s.d.id, to, tag, value)
		return
	}
	s.d.send(Msg{Type: SyncResp, From: s.d.id, To: to, Value: value, SyncID: int(tag)})
}

// handle processes one SyncReq.
func (s *syncManager) handle(m Msg, now sim.Cycle) {
	switch m.Op {
	case SyncAcquire:
		l := s.lock(m.SyncID)
		if !l.held {
			l.held = true
			s.reply(m.From, LockTag(m.SyncID, false), true)
			return
		}
		l.subs |= 1 << uint(m.From)
		s.reply(m.From, LockTag(m.SyncID, false), false)
	case SyncRelease:
		l := s.lock(m.SyncID)
		l.held = false
		subs := l.subs
		l.subs = 0
		s.push(subs, LockTag(m.SyncID, true), false)
	case SyncArrive:
		b := s.barrier(m.SyncID)
		b.count++
		b.subs |= 1 << uint(m.From)
		if b.count >= b.target {
			b.count = 0
			subs := b.subs
			b.subs = 0
			s.push(subs, BarrierTag(m.SyncID, true), true)
			return
		}
		s.reply(m.From, BarrierTag(m.SyncID, false), false)
	case SyncWatch:
		l := s.lock(m.SyncID)
		l.subs |= 1 << uint(m.From)
	default:
		panic("coherence: unknown sync op")
	}
}

// push sends an update to every subscriber; §5.1's update protocol on the
// subscribed single-bit word.
func (s *syncManager) push(subs uint64, tag uint64, value bool) {
	for n := 0; n < 64; n++ {
		if subs&(1<<uint(n)) != 0 {
			s.reply(n, tag, value)
		}
	}
}
