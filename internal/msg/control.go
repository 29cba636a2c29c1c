package msg

import (
	"encoding/binary"
	"fmt"

	"demosmp/internal/addr"
)

// This file defines the payload encodings of the kernel control messages.
// The migration protocol's administrative payloads are deliberately kept in
// the 6-12 byte range the paper reports for its 9 orchestration messages.

// Region selects which of the three data moves of a migration a MoveDataReq
// refers to (§3.1 steps 4-5, §6: "Three data moves are involved in moving a
// process. These are for the program (code and data), the non-swappable
// (resident) state, and the swappable state.").
type Region uint8

const (
	RegionResident  Region = 1 // kernel process record (~250 bytes in the paper)
	RegionSwappable Region = 2 // link table + body control state (~600 bytes)
	RegionProgram   Region = 3 // code, data, and stack
)

func (r Region) String() string {
	switch r {
	case RegionResident:
		return "resident"
	case RegionSwappable:
		return "swappable"
	case RegionProgram:
		return "program"
	default:
		return fmt.Sprintf("region(%d)", uint8(r))
	}
}

func putPID(b []byte, p addr.ProcessID) []byte { return addr.EncodePID(b, p) }

func getPID(b []byte) (addr.ProcessID, []byte, error) { return addr.DecodePID(b) }

// MigrateRequest asks the kernel currently hosting PID to migrate it to
// Dest. Sent by the process manager over a DELIVERTOKERNEL link.
// Wire: pid(4) + dest(2) = 6 bytes.
type MigrateRequest struct {
	PID  addr.ProcessID
	Dest addr.MachineID
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (r MigrateRequest) AppendTo(b []byte) []byte {
	b = putPID(b, r.PID)
	return binary.LittleEndian.AppendUint16(b, uint16(r.Dest))
}

func (r MigrateRequest) Encode() []byte { return r.AppendTo(make([]byte, 0, 6)) }

func DecodeMigrateRequest(b []byte) (MigrateRequest, error) {
	var r MigrateRequest
	pid, rest, err := getPID(b)
	if err != nil || len(rest) < 2 {
		return r, fmt.Errorf("msg: bad MigrateRequest")
	}
	r.PID = pid
	r.Dest = addr.MachineID(binary.LittleEndian.Uint16(rest))
	return r, nil
}

// MigrateAsk is the source kernel's request to the destination kernel,
// carrying "information about the size and location of the process's
// resident state, swappable state, and code" (§3.1 step 2).
// Sizes are in 64-byte units so the payload stays at 10 bytes.
type MigrateAsk struct {
	PID       addr.ProcessID
	Program   uint16 // program memory size, 64-byte units (rounded up)
	Resident  uint16 // resident state size, 64-byte units
	Swappable uint16 // swappable state size, 64-byte units
}

// SizeUnit is the granularity of the sizes in a MigrateAsk.
const SizeUnit = 64

// ToUnits rounds a byte count up to SizeUnit units.
func ToUnits(n int) uint16 {
	u := (n + SizeUnit - 1) / SizeUnit
	if u > 0xFFFF {
		u = 0xFFFF
	}
	return uint16(u)
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (a MigrateAsk) AppendTo(b []byte) []byte {
	b = putPID(b, a.PID)
	b = binary.LittleEndian.AppendUint16(b, a.Program)
	b = binary.LittleEndian.AppendUint16(b, a.Resident)
	return binary.LittleEndian.AppendUint16(b, a.Swappable)
}

func (a MigrateAsk) Encode() []byte { return a.AppendTo(make([]byte, 0, 10)) }

func DecodeMigrateAsk(b []byte) (MigrateAsk, error) {
	var a MigrateAsk
	pid, rest, err := getPID(b)
	if err != nil || len(rest) < 6 {
		return a, fmt.Errorf("msg: bad MigrateAsk")
	}
	a.PID = pid
	a.Program = binary.LittleEndian.Uint16(rest)
	a.Resident = binary.LittleEndian.Uint16(rest[2:])
	a.Swappable = binary.LittleEndian.Uint16(rest[4:])
	return a, nil
}

// PIDMachine is the common pid+machine payload used by MigrateAccept,
// MigrateRefuse, MigrateEstablished and DeathNotice. 6 bytes.
type PIDMachine struct {
	PID     addr.ProcessID
	Machine addr.MachineID
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (p PIDMachine) AppendTo(b []byte) []byte {
	b = putPID(b, p.PID)
	return binary.LittleEndian.AppendUint16(b, uint16(p.Machine))
}

func (p PIDMachine) Encode() []byte { return p.AppendTo(make([]byte, 0, 6)) }

func DecodePIDMachine(b []byte) (PIDMachine, error) {
	var p PIDMachine
	pid, rest, err := getPID(b)
	if err != nil || len(rest) < 2 {
		return p, fmt.Errorf("msg: bad PIDMachine")
	}
	p.PID = pid
	p.Machine = addr.MachineID(binary.LittleEndian.Uint16(rest))
	return p, nil
}

// MoveDataReq pulls one migration region from the source kernel
// (§3.1 steps 4-5; the destination kernel controls the transfer).
// Wire: pid(4) + region(1) + xfer(2) = 7 bytes.
type MoveDataReq struct {
	PID    addr.ProcessID
	Region Region
	Xfer   uint16 // stream id the data packets will carry
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (r MoveDataReq) AppendTo(b []byte) []byte {
	b = putPID(b, r.PID)
	b = append(b, byte(r.Region))
	return binary.LittleEndian.AppendUint16(b, r.Xfer)
}

func (r MoveDataReq) Encode() []byte { return r.AppendTo(make([]byte, 0, 7)) }

func DecodeMoveDataReq(b []byte) (MoveDataReq, error) {
	var r MoveDataReq
	pid, rest, err := getPID(b)
	if err != nil || len(rest) < 3 {
		return r, fmt.Errorf("msg: bad MoveDataReq")
	}
	r.PID = pid
	r.Region = Region(rest[0])
	r.Xfer = binary.LittleEndian.Uint16(rest[1:])
	return r, nil
}

// MigrateCleanup tells the destination that pending messages have been
// forwarded and the source has reclaimed the process (§3.1 step 7).
// Wire: pid(4) + forwarded(2) = 6 bytes.
type MigrateCleanup struct {
	PID       addr.ProcessID
	Forwarded uint16 // messages that were waiting in the queue
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (c MigrateCleanup) AppendTo(b []byte) []byte {
	b = putPID(b, c.PID)
	return binary.LittleEndian.AppendUint16(b, c.Forwarded)
}

func (c MigrateCleanup) Encode() []byte { return c.AppendTo(make([]byte, 0, 6)) }

func DecodeMigrateCleanup(b []byte) (MigrateCleanup, error) {
	var c MigrateCleanup
	pid, rest, err := getPID(b)
	if err != nil || len(rest) < 2 {
		return c, fmt.Errorf("msg: bad MigrateCleanup")
	}
	c.PID = pid
	c.Forwarded = binary.LittleEndian.Uint16(rest)
	return c, nil
}

// MigrateDone reports the outcome to the process manager.
// Wire: pid(4) + machine(2) + status(1) = 7 bytes.
type MigrateDone struct {
	PID     addr.ProcessID
	Machine addr.MachineID // where the process now runs
	OK      bool
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (d MigrateDone) AppendTo(b []byte) []byte {
	b = putPID(b, d.PID)
	b = binary.LittleEndian.AppendUint16(b, uint16(d.Machine))
	if d.OK {
		return append(b, 1)
	}
	return append(b, 0)
}

func (d MigrateDone) Encode() []byte { return d.AppendTo(make([]byte, 0, 7)) }

func DecodeMigrateDone(b []byte) (MigrateDone, error) {
	var d MigrateDone
	pid, rest, err := getPID(b)
	if err != nil || len(rest) < 3 {
		return d, fmt.Errorf("msg: bad MigrateDone")
	}
	d.PID = pid
	d.Machine = addr.MachineID(binary.LittleEndian.Uint16(rest))
	d.OK = rest[2] != 0
	return d, nil
}

// LinkUpdate is the special message of §5: "This special message contains
// the process identifier of the sender of the message, the process
// identifier of the intended receiver (the migrated process), and the new
// location of the receiver."
// Wire: sender(4) + migrated(4) + machine(2) = 10 bytes.
type LinkUpdate struct {
	Sender   addr.ProcessID // whose link table should be fixed
	Migrated addr.ProcessID // the process that moved
	Machine  addr.MachineID // its new location
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (u LinkUpdate) AppendTo(b []byte) []byte {
	b = putPID(b, u.Sender)
	b = putPID(b, u.Migrated)
	return binary.LittleEndian.AppendUint16(b, uint16(u.Machine))
}

func (u LinkUpdate) Encode() []byte { return u.AppendTo(make([]byte, 0, 10)) }

func DecodeLinkUpdate(b []byte) (LinkUpdate, error) {
	var u LinkUpdate
	s, rest, err := getPID(b)
	if err != nil {
		return u, fmt.Errorf("msg: bad LinkUpdate")
	}
	m, rest, err := getPID(rest)
	if err != nil || len(rest) < 2 {
		return u, fmt.Errorf("msg: bad LinkUpdate")
	}
	u.Sender, u.Migrated = s, m
	u.Machine = addr.MachineID(binary.LittleEndian.Uint16(rest))
	return u, nil
}

// CreateProcess asks a kernel to instantiate a registered program
// (sent by the process manager; not part of the migration accounting).
type CreateProcess struct {
	Tag  uint16 // requester correlation
	Name string
	Args []string
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (c CreateProcess) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, c.Tag)
	b = append(b, byte(len(c.Name)))
	b = append(b, c.Name...)
	b = append(b, byte(len(c.Args)))
	for _, a := range c.Args {
		b = append(b, byte(len(a)))
		b = append(b, a...)
	}
	return b
}

func (c CreateProcess) Encode() []byte { return c.AppendTo(make([]byte, 0, 16)) }

func DecodeCreateProcess(b []byte) (CreateProcess, error) {
	var c CreateProcess
	if len(b) < 4 {
		return c, fmt.Errorf("msg: bad CreateProcess")
	}
	c.Tag = binary.LittleEndian.Uint16(b)
	b = b[2:]
	n := int(b[0])
	b = b[1:]
	if len(b) < n+1 {
		return c, fmt.Errorf("msg: bad CreateProcess name")
	}
	c.Name = string(b[:n])
	b = b[n:]
	argc := int(b[0])
	b = b[1:]
	for i := 0; i < argc; i++ {
		if len(b) < 1 {
			return c, fmt.Errorf("msg: bad CreateProcess args")
		}
		an := int(b[0])
		b = b[1:]
		if len(b) < an {
			return c, fmt.Errorf("msg: bad CreateProcess arg %d", i)
		}
		c.Args = append(c.Args, string(b[:an]))
		b = b[an:]
	}
	return c, nil
}

// CreateDone reports a created process back to the requester.
// Wire: pid(4) + machine(2) + tag(2) = 8 bytes.
type CreateDone struct {
	PID     addr.ProcessID
	Machine addr.MachineID
	Tag     uint16
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (d CreateDone) AppendTo(b []byte) []byte {
	b = putPID(b, d.PID)
	b = binary.LittleEndian.AppendUint16(b, uint16(d.Machine))
	return binary.LittleEndian.AppendUint16(b, d.Tag)
}

func (d CreateDone) Encode() []byte { return d.AppendTo(make([]byte, 0, 8)) }

func DecodeCreateDone(b []byte) (CreateDone, error) {
	var d CreateDone
	pid, rest, err := getPID(b)
	if err != nil || len(rest) < 4 {
		return d, fmt.Errorf("msg: bad CreateDone")
	}
	d.PID = pid
	d.Machine = addr.MachineID(binary.LittleEndian.Uint16(rest))
	d.Tag = binary.LittleEndian.Uint16(rest[2:])
	return d, nil
}

// MoveRead asks the kernel of a data-area owner to stream bytes from the
// owner's memory (user-level move-data, §2.2). Wire: pid(4) + off(4) +
// len(4) + xfer(2) + areaOff(4) = 18 bytes (not an administrative message).
type MoveRead struct {
	PID     addr.ProcessID // area owner
	AreaOff uint32         // start of the granted area in the owner's image
	Off     uint32         // offset within the area
	Len     uint32
	Xfer    uint16
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (r MoveRead) AppendTo(b []byte) []byte {
	b = putPID(b, r.PID)
	b = binary.LittleEndian.AppendUint32(b, r.AreaOff)
	b = binary.LittleEndian.AppendUint32(b, r.Off)
	b = binary.LittleEndian.AppendUint32(b, r.Len)
	return binary.LittleEndian.AppendUint16(b, r.Xfer)
}

func (r MoveRead) Encode() []byte { return r.AppendTo(make([]byte, 0, 18)) }

func DecodeMoveRead(b []byte) (MoveRead, error) {
	var r MoveRead
	pid, rest, err := getPID(b)
	if err != nil || len(rest) < 14 {
		return r, fmt.Errorf("msg: bad MoveRead")
	}
	r.PID = pid
	r.AreaOff = binary.LittleEndian.Uint32(rest)
	r.Off = binary.LittleEndian.Uint32(rest[4:])
	r.Len = binary.LittleEndian.Uint32(rest[8:])
	r.Xfer = binary.LittleEndian.Uint16(rest[12:])
	return r, nil
}

// XferStatus reports completion of a user-level move-data stream back to
// the process that initiated it. Wire: xfer(2) + status(1) = 3 bytes.
type XferStatus struct {
	Xfer uint16
	OK   bool
}

// AppendTo appends the wire form to b (reusable-buffer encode).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode and TestControlRoundTripAll.
func (s XferStatus) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, s.Xfer)
	if s.OK {
		return append(b, 1)
	}
	return append(b, 0)
}

func (s XferStatus) Encode() []byte { return s.AppendTo(make([]byte, 0, 3)) }

func DecodeXferStatus(b []byte) (XferStatus, error) {
	if len(b) < 3 {
		return XferStatus{}, fmt.Errorf("msg: bad XferStatus")
	}
	return XferStatus{Xfer: binary.LittleEndian.Uint16(b), OK: b[2] != 0}, nil
}
