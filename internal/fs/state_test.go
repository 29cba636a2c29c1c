package fs

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"demosmp/internal/link"
	"demosmp/internal/proc"
	"demosmp/internal/proctest"
)

// TestGobCodec holds the five file-system bodies' Snapshot/Restore to
// proctest.CheckStateCodec, with gob as the reference for restored values.
// Disk.nextTag is unexported and stays behind, as it did under gob.
func TestGobCodec(t *testing.T) {
	block := make([]byte, BlockSize)
	for i := range block {
		block[i] = byte(i*7 + 3)
	}
	t.Run("file", func(t *testing.T) {
		proctest.CheckStateCodec(t, func() proc.Body { return &FileServer{} }, gobCopy,
			&FileServer{},
			NewFileServer(0),
			&FileServer{
				CacheLink: 1, MaxBlocks: math.MaxUint32, NextFID: 9, NextBID: 40, NextHandle: 3, NextTag: 65535,
				Inodes:       map[uint32]*Inode{8: {Size: 1500, Blocks: []uint32{38, 39}}},
				Handles:      map[uint16]uint32{2: 8},
				Ops:          map[uint16]*fileOp{7: {Kind: OpFWrite, FID: 8, Off: 512, N: 300, Reply: 4, Area: 5, Data: block[:300], Cur: 1}},
				BlockWaiters: map[uint32][]uint16{39: {7, 7}},
				ReadsDone:    1, WritesDone: math.MaxUint64,
			},
			&FileServer{
				Inodes:  map[uint32]*Inode{1: {}, 2: {Size: 1, Blocks: []uint32{0}}, 3: {Size: 9}},
				Handles: map[uint16]uint32{1: 1, 2: 2, 3: 3},
			},
		)
	})
	t.Run("dir", func(t *testing.T) {
		proctest.CheckStateCodec(t, func() proc.Body { return &Dir{} }, gobCopy,
			&Dir{},
			NewDir(),
			&Dir{FileLink: 1, Names: map[string]uint32{"": 0}, Lookups: 3},
			&Dir{FileLink: 1, Names: map[string]uint32{"a": 1},
				Creates: []pendingCreate{{Name: "b", Reply: 6}, {}}, CreatesDone: math.MaxUint64},
			&Dir{Names: map[string]uint32{"a": 1, "b": 2, "c/d": 3}},
		)
	})
	t.Run("client", func(t *testing.T) {
		proctest.CheckStateCodec(t, func() proc.Body { return &Client{} }, gobCopy,
			&Client{},
			NewClient("data.bin", 10, 2048),
			&Client{File: "f", Rounds: -1, Size: math.MaxUint32, Stride: true, DirLink: 1, FileLink: 2, AreaLink: 3,
				State: 4, Round: 7, FID: 2, Handle: 9, Verified: 6, Failed: []string{"round 3: short read", ""}},
		)
	})
	t.Run("cache", func(t *testing.T) {
		proctest.CheckStateCodec(t, func() proc.Body { return &Cache{} }, gobCopy,
			&Cache{},
			NewCache(0),
			&Cache{DiskLink: 1, Capacity: 2, Blocks: map[uint32][]byte{5: block}, LRU: []uint32{5},
				ReadWaiters: map[uint32][]link.ID{5: {6, 7}}, WriteWaiters: map[uint32][]link.ID{}, Hits: 1, Misses: 2, WriteThroughs: 3},
			&Cache{Capacity: -1, Blocks: map[uint32][]byte{1: nil, 2: {}, 3: block[:1]}, LRU: []uint32{3, 1, 2}},
		)
	})
	t.Run("disk", func(t *testing.T) {
		proctest.CheckStateCodec(t, func() proc.Body { return &Disk{} }, gobCopy,
			&Disk{},
			NewDisk(DefaultGeometry()),
			&Disk{Geom: DiskGeometry{Blocks: 4, SeekPerBlock: 2, MinLatency: math.MaxUint64},
				Platter: map[uint32][]byte{3: block}, LastBID: 3,
				Queue: []diskOp{{Write: true, BID: 1, Data: block[:9], Reply: 4}, {BID: 2, Reply: 5}},
				Busy:  true, Reads: 10, Writes: 11},
		)
	})
}

// gobCopy copies src into dst through a fresh gob encoder and decoder: the
// reference for what Restore leaves in a new body.
func gobCopy(dst, src proc.Body) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(src); err != nil {
		return err
	}
	return gob.NewDecoder(&buf).Decode(dst)
}
