// Package coherence implements the paper's shared-memory substrate: a
// MESI directory protocol with the full Table 2 state machine — stable
// L1 states M/E/S/I with transients I.SD, I.MD and S.MA, and directory
// states DM/DS/DV/DI with the ten transients — including the race
// reinterpretations ("z" stalls, upgrade-to-exclusive conversion),
// NACK-based fetch-deadlock avoidance, and the §5.1 optimizations that
// exploit the FSOI confirmation channel (invalidation-ack elision and
// boolean subscription for synchronization variables).
package coherence

import (
	"fmt"

	"fsoi/internal/cache"
)

// TraceAddr, when non-zero, enables event tracing for one line through
// TraceFn; diagnostics only.
var (
	TraceAddr cache.LineAddr
	TraceFn   func(format string, args ...any)
)

func trace(format string, args ...any) {
	if TraceFn != nil {
		TraceFn(format, args...)
	}
}

// MsgType enumerates the protocol messages of Table 2.
type MsgType int

// Protocol messages. Req* flow L1->directory, Data*/ExcAck/Inv/Dwg/Nack
// flow directory->L1, the acks flow L1->directory, and ReqMem/MemWrite/
// MemAck flow between a directory and its memory controller.
const (
	ReqSh MsgType = iota
	ReqEx
	ReqUpg
	DataS
	DataE
	DataM
	ExcAck
	Inv
	Dwg
	InvAck
	DwgAck
	WriteBack
	Nack
	ReqMem
	MemWrite
	MemAck
	SyncReq  // synchronization operation (lock/barrier), §5.1
	SyncResp // synchronization reply carrying a boolean
)

var msgNames = map[MsgType]string{
	ReqSh: "Req(Sh)", ReqEx: "Req(Ex)", ReqUpg: "Req(Upg)",
	DataS: "Data(S)", DataE: "Data(E)", DataM: "Data(M)",
	ExcAck: "ExcAck", Inv: "Inv", Dwg: "Dwg",
	InvAck: "InvAck", DwgAck: "DwgAck", WriteBack: "WriteBack",
	Nack: "Nack", ReqMem: "Req(Mem)", MemWrite: "MemWrite", MemAck: "MemAck",
	SyncReq: "SyncReq", SyncResp: "SyncResp",
}

// String names the message type.
func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// SyncOp selects the semantic of a SyncReq.
type SyncOp int

// Synchronization operations handled at the home directory.
const (
	SyncNone SyncOp = iota
	// SyncAcquire attempts a test-and-set lock acquire (ll/sc semantics).
	SyncAcquire
	// SyncRelease frees a lock.
	SyncRelease
	// SyncArrive signals barrier arrival; the reply reports release.
	SyncArrive
	// SyncWatch subscribes to updates of a boolean location.
	SyncWatch
)

// Msg is one protocol message. HasData distinguishes the 360-bit
// line-carrying variants (Data*, dirty InvAck/DwgAck/WriteBack, MemAck)
// from 72-bit control messages.
type Msg struct {
	Type    MsgType
	Addr    cache.LineAddr
	From    int // sending controller's node
	To      int // destination controller's node
	HasData bool

	// Requester is the original L1 requester for directory-internal
	// bookkeeping of forwarded transactions.
	Requester int

	// Sync fields (SyncReq/SyncResp only).
	Op     SyncOp
	SyncID int
	Value  bool
}
