// Package msg defines DEMOS/MP messages and their compact wire encodings.
//
// Everything in the system travels as a message: user traffic between
// processes, kernel-to-kernel administrative messages (the 9 short control
// messages that orchestrate a migration, paper §6), move-data packets and
// their acknowledgements, and the special link-update message of §5.
package msg

import (
	"encoding/binary"
	"fmt"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/sim"
)

// Kind classifies a message for routing, accounting, and experiments.
type Kind uint8

const (
	// KindUser is ordinary process-to-process traffic.
	KindUser Kind = iota + 1
	// KindControl is a kernel-level administrative message; Op selects
	// the operation. The migration protocol's "9 messages, each in the
	// 6-12 byte range" are all KindControl.
	KindControl
	// KindData is a move-data packet: part of a streamed block transfer.
	KindData
	// KindAck acknowledges a single move-data packet. "The receiving
	// kernel acknowledges each packet (but the sending kernel does not
	// have to wait for the acknowledgement to send the next packet)."
	KindAck
	// KindLinkUpdate is the special message of §5 sent by a forwarding
	// kernel to the kernel of the original sender so stale links get
	// fixed as they are used.
	KindLinkUpdate
)

// KindCount is one past the highest defined Kind; flat per-kind counter
// arrays (e.g. in internal/netw) are sized by it.
const KindCount = int(KindLinkUpdate) + 1

func (k Kind) String() string {
	switch k {
	case KindUser:
		return "user"
	case KindControl:
		return "control"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindLinkUpdate:
		return "linkupdate"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is a kernel control operation carried by a KindControl message.
type Op uint8

const (
	OpNone Op = iota

	// Migration protocol (the administrative messages of §6, in order).
	OpMigrateRequest     // 1. process manager -> source kernel (DELIVERTOKERNEL)
	OpMigrateAsk         // 2. source kernel -> destination kernel: sizes
	OpMigrateAccept      // 3. destination -> source: state allocated
	OpMigrateRefuse      //    destination -> source: migration denied (§3.2)
	OpMoveDataReq        // 4-6. destination pulls resident, swappable, program
	OpMigrateEstablished // 7. destination -> source: process established
	OpMigrateCleanup     // 8. source -> destination: queue forwarded, cleaned up
	OpMigrateDone        // 9. source -> process manager: migration complete
	OpMigrateAbort       //    either kernel -> the other: give up, discard state

	// Process control (sent by the process manager over DELIVERTOKERNEL
	// links, §2.2).
	OpSuspend
	OpResume
	OpKill
	OpCreateProcess // process manager -> kernel: instantiate a program
	OpCreateDone    // kernel -> requester: created pid

	// Move-data facility (user-level block transfer through link data
	// areas, §2.2), and stream termination notices.
	OpMoveRead      // requesting kernel -> area owner's kernel: send me bytes
	OpMoveWrite     // writing kernel -> area owner's kernel: stream incoming
	OpMoveWriteDone // area owner's kernel -> writer: stream applied
	OpMoveReadDone  // requesting kernel -> requesting process: assembled data

	// Kernel services for processes.
	OpTimer // kernel -> process: a SetTimer deadline fired

	// Forwarding machinery.
	OpDeathNotice    // process died: reclaim forwarders backwards along the migration path (§4)
	OpNotDeliverable // return-to-sender baseline (§4 alternative)
	OpLocate         // kernel -> process manager: where is pid? (baseline)
	OpLocateReply    // process manager -> kernel: pid's current machine (baseline)
	OpEagerUpdate    // broadcast link update at migration time (ablation)
	OpSearchQuery    // restarted kernel's search for a pid whose forwarder it lost (§4 escape hatch)

	// OpCount is one past the highest defined Op; flat per-op counter
	// arrays (kernel.Stats.AdminSent) are sized by it.
	OpCount
)

var opNames = map[Op]string{
	OpNone: "none", OpMigrateRequest: "migrate-request", OpMigrateAsk: "migrate-ask",
	OpMigrateAccept: "migrate-accept", OpMigrateRefuse: "migrate-refuse",
	OpMoveDataReq: "move-data-req", OpMigrateEstablished: "migrate-established",
	OpMigrateCleanup: "migrate-cleanup", OpMigrateDone: "migrate-done",
	OpMigrateAbort: "migrate-abort",
	OpSuspend:      "suspend", OpResume: "resume", OpKill: "kill",
	OpCreateProcess: "create-process", OpCreateDone: "create-done",
	OpMoveRead: "move-read", OpMoveWrite: "move-write",
	OpMoveWriteDone: "move-write-done", OpMoveReadDone: "move-read-done",
	OpTimer: "timer", OpDeathNotice: "death-notice",
	OpNotDeliverable: "not-deliverable", OpLocate: "locate",
	OpLocateReply: "locate-reply", OpEagerUpdate: "eager-update",
	OpSearchQuery: "search-query",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// HeaderWireSize is the encoded size of the fixed message header:
// kind(1) op(1) flags(1) from(6) to(6) nlinks(1) bodylen(2).
const HeaderWireSize = 1 + 1 + 1 + 2*addr.AddrWireSize + 1 + 2

// streamWireSize is the extra header carried by Data/Ack packets:
// xfer(2) seq(4).
const streamWireSize = 6

// Flag bits in the wire header.
const (
	flagDTK  = 1 << 0 // deliver-to-kernel
	flagLast = 1 << 1 // final packet of a move-data stream
)

// Message is a DEMOS/MP message. The struct is passed by pointer inside the
// simulator; Encode/Decode define the authoritative wire format used for
// size accounting and for the wire-level tests.
type Message struct {
	Kind  Kind
	Op    Op
	From  addr.ProcessAddr
	To    addr.ProcessAddr
	DTK   bool // deliver to the kernel where To currently resides (§2.2)
	Body  []byte
	Links []link.Link // capabilities carried inside the message

	// Move-data stream fields (KindData / KindAck).
	Xfer uint16 // transfer id
	Seq  uint32 // packet sequence number; payload offset = Seq * packetSize
	Last bool   // final packet of the stream

	// Simulation bookkeeping — not part of the wire format.
	SentAt   sim.Time // first submission time
	Forwards uint8    // times re-routed through a forwarding address
	Hops     uint8    // network transmissions
	Searched bool     // already rerouted once by a restarted kernel's search fallback

	// Orig carries the bounced message inside an OpNotDeliverable
	// control message (the return-to-sender baseline of §4). Its wire
	// size counts toward this message's size.
	Orig *Message

	// wire caches WireSize. Size-affecting fields (Body, Links, Kind,
	// Orig) are fixed once a message is submitted, which is when the
	// first WireSize call happens.
	wire int32

	// Envelope pooling (see Pool). home is the pool that constructed the
	// envelope and the only free list it ever returns to (nil for
	// heap-constructed messages and timer marks, which Put ignores); inFree
	// guards against double release; mark is set only on a Pool.TimerMark.
	inFree bool
	mark   bool
	home   *Pool
}

// Pooled reports whether m was acquired from a Pool (and will be recycled).
func (m *Message) Pooled() bool { return m.home != nil }

// IsMark reports whether m is a timer mark (Pool.TimerMark): read-only,
// shared, and never sent as it is.
func (m *Message) IsMark() bool { return m.mark }

// WireSize returns the number of bytes the message occupies on the wire.
// The result is cached: Body/Links/Kind/Orig must not change size after
// the first call (routing fields like To, Hops, Forwards may).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/msg-encode in bench_hotpath_test.go.
func (m *Message) WireSize() int {
	if m.wire > 0 {
		return int(m.wire)
	}
	n := HeaderWireSize + len(m.Body) + len(m.Links)*link.WireSize
	if m.Kind == KindData || m.Kind == KindAck {
		n += streamWireSize
	}
	if m.Orig != nil {
		n += m.Orig.WireSize()
	}
	m.wire = int32(n)
	return n
}

// AppendWire appends the full wire form of m to b and returns the extended
// buffer — the reusable-buffer counterpart of the allocating encode path,
// for callers that amortize one scratch buffer across many messages.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/msg-encode and BenchmarkMsgEncode.
func (m *Message) AppendWire(b []byte) []byte { return Encode(b, m) }

// Clone returns a deep heap copy of m. The network takes its wire copies
// with Pool.Clone wherever a pool is at hand; Clone serves the endpoints
// that lend none (bare test endpoints), and tests.
func (m *Message) Clone() *Message {
	c := *m
	if m.Body != nil {
		c.Body = append([]byte(nil), m.Body...)
	}
	if m.Links != nil {
		c.Links = append([]link.Link(nil), m.Links...)
	}
	// The copy is an ordinary heap message regardless of the original's
	// provenance: it must never be recycled through a pool. That goes for
	// a bounced original it carries too — every copy owns its own Orig.
	if m.Orig != nil {
		c.Orig = m.Orig.Clone()
	}
	c.home, c.inFree = nil, false
	return &c
}

func (m *Message) String() string {
	s := fmt.Sprintf("[%v", m.Kind)
	if m.Kind == KindControl {
		s += ":" + m.Op.String()
	}
	s += fmt.Sprintf(" %v->%v", m.From, m.To)
	if m.DTK {
		s += " DTK"
	}
	if len(m.Body) > 0 {
		s += fmt.Sprintf(" %dB", len(m.Body))
	}
	if len(m.Links) > 0 {
		s += fmt.Sprintf(" +%d links", len(m.Links))
	}
	if m.Forwards > 0 {
		s += fmt.Sprintf(" fwd=%d", m.Forwards)
	}
	return s + "]"
}

// Encode appends the full wire form of m to b.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/msg-encode in bench_hotpath_test.go.
func Encode(b []byte, m *Message) []byte {
	b = append(b, byte(m.Kind), byte(m.Op))
	var flags byte
	if m.DTK {
		flags |= flagDTK
	}
	if m.Last {
		flags |= flagLast
	}
	b = append(b, flags)
	b = addr.EncodeAddr(b, m.From)
	b = addr.EncodeAddr(b, m.To)
	b = append(b, byte(len(m.Links)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Body)))
	if m.Kind == KindData || m.Kind == KindAck {
		b = binary.LittleEndian.AppendUint16(b, m.Xfer)
		b = binary.LittleEndian.AppendUint32(b, m.Seq)
	}
	for _, l := range m.Links {
		b = link.Encode(b, l)
	}
	b = append(b, m.Body...)
	return b
}

// Decode parses one message from the front of b, returning the remainder.
func Decode(b []byte) (*Message, []byte, error) {
	if len(b) < HeaderWireSize {
		return nil, b, fmt.Errorf("msg: short header: %d bytes", len(b))
	}
	m := &Message{Kind: Kind(b[0]), Op: Op(b[1])}
	flags := b[2]
	m.DTK = flags&flagDTK != 0
	m.Last = flags&flagLast != 0
	var err error
	rest := b[3:]
	if m.From, rest, err = addr.DecodeAddr(rest); err != nil {
		return nil, b, err
	}
	if m.To, rest, err = addr.DecodeAddr(rest); err != nil {
		return nil, b, err
	}
	nlinks := int(rest[0])
	bodyLen := int(binary.LittleEndian.Uint16(rest[1:]))
	rest = rest[3:]
	if m.Kind == KindData || m.Kind == KindAck {
		if len(rest) < streamWireSize {
			return nil, b, fmt.Errorf("msg: short stream header")
		}
		m.Xfer = binary.LittleEndian.Uint16(rest)
		m.Seq = binary.LittleEndian.Uint32(rest[2:])
		rest = rest[streamWireSize:]
	}
	for i := 0; i < nlinks; i++ {
		var l link.Link
		if l, rest, err = link.Decode(rest); err != nil {
			return nil, b, err
		}
		m.Links = append(m.Links, l)
	}
	if len(rest) < bodyLen {
		return nil, b, fmt.Errorf("msg: short body: want %d, have %d", bodyLen, len(rest))
	}
	if bodyLen > 0 {
		m.Body = append([]byte(nil), rest[:bodyLen]...)
	}
	return m, rest[bodyLen:], nil
}
