package fs

import "encoding/binary"

// DLookupMsg builds a lookup request.
func DLookupMsg(name string) []byte { return nameReq(OpDLookup, name) }

// DRemoveMsg builds a remove request.
func DRemoveMsg(name string) []byte { return nameReq(OpDRemove, name) }

// DListMsg builds a directory listing request.
func DListMsg() []byte { return []byte{OpDList} }

// FStatMsg builds a stat request.
func FStatMsg(h uint16) []byte {
	return binary.LittleEndian.AppendUint16([]byte{OpFStat}, h)
}
