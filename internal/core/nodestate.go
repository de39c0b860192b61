package core

import (
	"slices"

	"fsoi/internal/noc"
	"fsoi/internal/sim"
	"fsoi/internal/table"
)

// queued is one packet waiting in a lane's outgoing queue, with the §5.2
// scheduling hold (receiver scheduling, writeback split) that applies to
// it: the lane serializer skips it until notBefore.
type queued struct {
	pkt       *noc.Packet
	notBefore sim.Cycle
	held      bool
}

// slotWindow is the set of data slots reserved at one node's receiver
// (§5.2: a requester books the slot its reply should land in, a home node
// the slot it grants a writeback).
//
// A reservation is only ever looked up at a slot index no earlier than the
// one containing the present cycle: a request starts looking at
// (now+replyEWMA)/dataSlot, a writeback grant at (now+ConfirmDelay)/dataSlot+1.
// So a reservation whose slot has begun is dead and nothing has to retire
// it: the next reserve drops it in passing. What is live is one entry per
// request outstanding or writeback granted, a handful, so the set is a
// short unordered slice.
type slotWindow struct {
	slots []int64
}

// has reports whether slot s is reserved. s must not be in the past.
func (w *slotWindow) has(s int64) bool { return slices.Contains(w.slots, s) }

// reserve books the first free slot of first..first+3, or first+4 whatever
// its state (the hardware gives up looking, and two packets then share a
// slot), and returns it. cur is the slot containing the present cycle. A
// first slot before it would be looking among the dead, which is what
// nothing retiring reservations relies on never happening.
func (w *slotWindow) reserve(first, cur int64) int64 {
	if first < cur {
		panic("core: reservation aimed at a data slot already past")
	}
	w.slots = slices.DeleteFunc(w.slots, func(s int64) bool { return s < cur })
	s := first
	for i := 0; i < 4 && w.has(s); i++ {
		s++
	}
	if !w.has(s) {
		w.slots = append(w.slots, s)
	}
	return s
}

// replyLog remembers when this node sent each request whose data reply is
// still due, oldest first per responder; the reply's arrival pops the head
// and feeds the reply-latency estimate receiver scheduling aims with. A
// request that is NACKed is answered by no data packet, so its entry stays
// behind the retry's for good: a list is popped only ever at the head and
// grows only at the tail, whatever sits in between. One table keyed by
// responder holds the lists' ends; their cells share one slice and one free
// list per node, so neither a push nor a pop allocates once the node has
// seen its working set.
type replyLog struct {
	ends  table.Table[listEnds] // by responder
	cells []replyCell
	free  int32 // first recycled cell, as an index+1; 0 when there is none
}

// listEnds locates one responder's list in replyLog.cells, as index+1 so
// that the zero value is the empty list.
type listEnds struct{ head, tail int32 }

type replyCell struct {
	sent sim.Cycle
	next int32 // index+1 of the next cell of the list, or of the free list
}

// push appends a request sent to dst at cycle sent.
func (r *replyLog) push(dst int, sent sim.Cycle) {
	c := r.free
	if c != 0 {
		r.free = r.cells[c-1].next
		r.cells[c-1] = replyCell{sent: sent}
	} else {
		r.cells = append(r.cells, replyCell{sent: sent})
		c = int32(len(r.cells))
	}
	e := r.ends.Put(uint64(dst))
	if e.tail != 0 {
		r.cells[e.tail-1].next = c
	} else {
		e.head = c
	}
	e.tail = c
}

// pop removes and returns the send cycle of the oldest request to src.
func (r *replyLog) pop(src int) (sent sim.Cycle, ok bool) {
	e := r.ends.Ref(uint64(src))
	if e == nil || e.head == 0 {
		return 0, false
	}
	c := e.head
	cell := &r.cells[c-1]
	sent = cell.sent
	if e.head = cell.next; e.head == 0 {
		e.tail = 0
	}
	cell.next = r.free
	r.free = c
	return sent, true
}

// wbSplit is one writeback's §5.2 split transaction in flight: the
// announcement riding to the home node and the grant riding back. Records
// are recycled through the source node's free list (nodeState.wbFree) with
// both callbacks bound once, like transmission: acquired in schedulePacket,
// released exactly once, when the grant lands, both in the source's
// context; in between the home node's context holds it for one event.
type wbSplit struct {
	n          *Network
	pkt        *noc.Packet
	slot       int64 // the data slot the home node granted
	announceFn func(now sim.Cycle)
	grantFn    func(now sim.Cycle)
}

// announce runs at the home node, ConfirmDelay after the writeback was
// queued: the home node books the first free slot at its receiver that the
// grant can still reach the sender ahead of, and sends the grant back.
func (wb *wbSplit) announce(at sim.Cycle) {
	n, p := wb.n, wb.pkt
	cd := sim.Cycle(n.cfg.ConfirmDelay)
	dataSlot := n.slotLen[LaneData]
	wb.slot = n.nodes[p.Dst].reserved.reserve(int64(at+cd)/dataSlot+1, int64(at)/dataSlot)
	n.engine.At(at+cd, wb.grantFn)
}

// grant runs back at the sender: the writeback is held until the granted
// slot opens. The packet is still in the data queue, behind the provisional
// hold schedulePacket gave it, which expires only in this cycle's tick:
// events run before ticks, and the granted slot opens later than now.
func (wb *wbSplit) grant(sim.Cycle) {
	n, p := wb.n, wb.pkt
	ns := n.nodes[p.Src]
	release := sim.Cycle(wb.slot * n.slotLen[LaneData])
	wb.pkt, wb.slot = nil, 0
	ns.wbFree = append(ns.wbFree, wb)
	q := ns.queue[LaneData]
	for i := range q {
		if q[i].pkt == p {
			q[i].notBefore = release
			return
		}
	}
	panic("core: a writeback grant found its packet gone from the data queue")
}
