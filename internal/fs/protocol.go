// Package fs implements the DEMOS/MP file system as four cooperating
// server processes — directory server, file server, buffer cache, and disk
// driver — mirroring "the file system (actually, four processes)" of §2.3.
//
// Large data moves between clients and the file server go through link
// data areas using the kernel move-data facility, as in the paper ("This is
// the mechanism for large data transfers, such as file accesses"). All
// four servers are ordinary migratable bodies; the paper's test example —
// "It migrates a file system process while several user processes are
// performing I/O" — is reproduced in the E6 experiment.
package fs

import (
	"encoding/binary"
	"fmt"
)

// BlockSize is the disk block size in bytes.
const BlockSize = 512

// Request opcodes. Directory server and file server each understand their
// own subset; the first body byte selects the operation.
const (
	// Directory server.
	OpDCreate = 'C' // name; reply: status + fid(4)
	OpDLookup = 'G' // name; reply: status + fid(4)
	OpDRemove = 'X' // name; reply: status
	OpDList   = 'D' // reply: status + newline-joined names

	// File server (client-facing).
	OpFOpen  = 'O' // fid(4); reply: status + handle(2)
	OpFClose = 'K' // handle(2); reply: status
	OpFRead  = 'R' // handle(2) off(4) len(4); carries [data area link, reply]; reply: status + n(4)
	OpFWrite = 'W' // handle(2) off(4) len(4); carries [data area link, reply]; reply: status + n(4)
	OpFStat  = 'T' // handle(2); reply: status + size(4)
	OpFAlloc = 'A' // (from dir server) reply: status + fid(4)

	// Buffer cache.
	OpCGet = 'g' // bid(4); reply: status + block data
	OpCPut = 'p' // bid(4) + data; reply: status

	// Disk driver.
	OpBRead  = 'r' // bid(4); reply: status + block data
	OpBWrite = 'w' // bid(4) + data; reply: status
)

// Status bytes beginning every reply.
const (
	StOK  = 0
	StErr = 1
)

// --- request builders --------------------------------------------------------

func nameReq(op byte, name string) []byte { return append([]byte{op}, name...) }

// DCreateMsg builds a create-file request.
func DCreateMsg(name string) []byte { return nameReq(OpDCreate, name) }

// FOpenMsg builds an open request.
func FOpenMsg(fid uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{OpFOpen}, fid)
}

// FCloseMsg builds a close request.
func FCloseMsg(h uint16) []byte {
	return binary.LittleEndian.AppendUint16([]byte{OpFClose}, h)
}

// FAllocMsg builds an inode allocation request (directory server internal).
func FAllocMsg() []byte { return []byte{OpFAlloc} }

// FIOMsg builds a read or write request (op is OpFRead or OpFWrite).
// The message must carry [data-area link, reply link] in that order.
func FIOMsg(op byte, h uint16, off, n uint32) []byte {
	b := binary.LittleEndian.AppendUint16([]byte{op}, h)
	b = binary.LittleEndian.AppendUint32(b, off)
	return binary.LittleEndian.AppendUint32(b, n)
}

// CGetMsg builds a cache block-read request.
func CGetMsg(bid uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{OpCGet}, bid)
}

// CPutMsg builds a cache write-through request.
func CPutMsg(bid uint32, data []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{OpCPut}, bid)
	return append(b, data...)
}

// BReadMsg builds a raw disk read.
func BReadMsg(bid uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{OpBRead}, bid)
}

// BWriteMsg builds a raw disk write.
func BWriteMsg(bid uint32, data []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{OpBWrite}, bid)
	return append(b, data...)
}

// --- reply helpers -----------------------------------------------------------

// OKReply builds a status-OK reply with payload.
func OKReply(payload []byte) []byte { return append([]byte{StOK}, payload...) }

// ErrReply builds a status-error reply.
func ErrReply() []byte { return []byte{StErr} }

// ParseReply splits a reply into success flag and payload.
func ParseReply(body []byte) (ok bool, payload []byte, err error) {
	if len(body) < 1 {
		return false, nil, fmt.Errorf("fs: empty reply")
	}
	return body[0] == StOK, body[1:], nil
}

// U32Reply builds an OK reply holding one uint32.
func U32Reply(v uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{StOK}, v)
}

// ParseU32 extracts the uint32 from an OK reply payload.
func ParseU32(payload []byte) (uint32, error) {
	if len(payload) < 4 {
		return 0, fmt.Errorf("fs: short u32 payload")
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// U16Reply builds an OK reply holding one uint16.
func U16Reply(v uint16) []byte {
	return binary.LittleEndian.AppendUint16([]byte{StOK}, v)
}

// ParseU16 extracts the uint16 from an OK reply payload.
func ParseU16(payload []byte) (uint16, error) {
	if len(payload) < 2 {
		return 0, fmt.Errorf("fs: short u16 payload")
	}
	return binary.LittleEndian.Uint16(payload), nil
}
