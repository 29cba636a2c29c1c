package fs

import (
	"encoding/binary"

	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
)

// FileKind is the registry name of the file server body.
const FileKind = "fs-file"

// Inode maps a file to its disk blocks.
type Inode struct {
	Size   uint32
	Blocks []uint32
}

// fileOp is one in-flight client read or write. Operations span several
// asynchronous steps (move-data pull, cache fetches, write-throughs, move-
// data push); the Op record is the resumption state between steps — and
// because it lives in the body, an in-flight operation survives migration
// of the file server (the paper's test case).
type fileOp struct {
	Kind  byte // OpFRead or OpFWrite
	FID   uint32
	Off   uint32
	N     uint32
	Reply link.ID
	Area  link.ID
	Data  []byte
	Cur   uint32 // current file-block index
}

// FileServer is the file manager: inodes, open handles, block allocation.
// Link slot 1 (installed at spawn) must point at the buffer cache.
type FileServer struct {
	CacheLink link.ID
	MaxBlocks uint32

	Inodes     map[uint32]*Inode
	NextFID    uint32
	NextBID    uint32
	Handles    map[uint16]uint32
	NextHandle uint16

	Ops     map[uint16]*fileOp
	NextTag uint16
	// BlockWaiters orders in-flight cache requests per block id; cache
	// replies echo the bid and are matched FIFO.
	BlockWaiters map[uint32][]uint16

	ReadsDone, WritesDone uint64
}

// NewFileServer returns a file server whose cache link is slot 1.
func NewFileServer(maxBlocks uint32) *FileServer {
	if maxBlocks == 0 {
		maxBlocks = 10240
	}
	return &FileServer{
		CacheLink:    1,
		MaxBlocks:    maxBlocks,
		Inodes:       make(map[uint32]*Inode),
		NextFID:      1,
		NextBID:      1,
		Handles:      make(map[uint16]uint32),
		NextHandle:   1,
		Ops:          make(map[uint16]*fileOp),
		BlockWaiters: make(map[uint32][]uint16),
	}
}

// Kind implements proc.Body.
func (f *FileServer) Kind() string { return FileKind }

// Step implements proc.Body.
func (f *FileServer) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		switch {
		case d.Op == msg.OpMoveReadDone:
			f.moveFromDone(ctx, d)
		case d.Op == msg.OpMoveWriteDone:
			f.moveToDone(ctx, d)
		case len(d.Body) >= 1 && (d.Body[0] == StOK || d.Body[0] == StErr):
			f.cacheReply(ctx, d)
		case len(d.Body) >= 1:
			f.request(ctx, d)
		}
	}
}

func (f *FileServer) request(ctx proc.Context, d *proc.Delivery) {
	switch d.Body[0] {
	case OpFAlloc:
		if len(d.Carried) < 1 {
			return
		}
		fid := f.NextFID
		f.NextFID++
		f.Inodes[fid] = &Inode{}
		ctx.Send(d.Carried[0], U32Reply(fid))
	case OpFOpen:
		if len(d.Body) < 5 || len(d.Carried) < 1 {
			return
		}
		fid := binary.LittleEndian.Uint32(d.Body[1:])
		if _, ok := f.Inodes[fid]; !ok {
			ctx.Send(d.Carried[0], ErrReply())
			return
		}
		h := f.NextHandle
		f.NextHandle++
		f.Handles[h] = fid
		ctx.Send(d.Carried[0], U16Reply(h))
	case OpFClose:
		if len(d.Body) < 3 || len(d.Carried) < 1 {
			return
		}
		h := binary.LittleEndian.Uint16(d.Body[1:])
		delete(f.Handles, h)
		ctx.Send(d.Carried[0], OKReply(nil))
	case OpFStat:
		if len(d.Body) < 3 || len(d.Carried) < 1 {
			return
		}
		h := binary.LittleEndian.Uint16(d.Body[1:])
		ino := f.inodeOf(h)
		if ino == nil {
			ctx.Send(d.Carried[0], ErrReply())
			return
		}
		ctx.Send(d.Carried[0], U32Reply(ino.Size))
	case OpFRead, OpFWrite:
		f.startIO(ctx, d)
	}
}

func (f *FileServer) inodeOf(h uint16) *Inode {
	fid, ok := f.Handles[h]
	if !ok {
		return nil
	}
	return f.Inodes[fid]
}

// startIO begins a read or write. The request carries [data area, reply].
func (f *FileServer) startIO(ctx proc.Context, d *proc.Delivery) {
	if len(d.Body) < 11 || len(d.Carried) < 2 {
		return
	}
	h := binary.LittleEndian.Uint16(d.Body[1:])
	off := binary.LittleEndian.Uint32(d.Body[3:])
	n := binary.LittleEndian.Uint32(d.Body[7:])
	area, reply := d.Carried[0], d.Carried[1]
	fid, ok := f.Handles[h]
	if !ok {
		ctx.DestroyLink(area)
		ctx.Send(reply, ErrReply())
		return
	}
	op := &fileOp{Kind: d.Body[0], FID: fid, Off: off, N: n, Reply: reply, Area: area}
	f.NextTag++
	tag := f.NextTag
	f.Ops[tag] = op

	if op.Kind == OpFWrite {
		if n == 0 {
			f.finishOp(ctx, tag, op, true, 0)
			return
		}
		// Pull the client's bytes through its data area (§2.2: "the
		// mechanism for large data transfers, such as file accesses").
		if err := ctx.MoveFrom(area, 0, n, tag); err != nil {
			f.finishOp(ctx, tag, op, false, 0)
		}
		return
	}
	// Read: clip to file size, assemble, then push through the area.
	ino := f.Inodes[fid]
	if off >= ino.Size {
		op.N = 0
	} else if off+n > ino.Size {
		op.N = ino.Size - off
	}
	if op.N == 0 {
		f.finishOp(ctx, tag, op, true, 0)
		return
	}
	op.Data = make([]byte, op.N)
	op.Cur = op.Off / BlockSize
	f.advanceRead(ctx, tag, op)
}

// moveFromDone continues a write once the client's data has arrived.
func (f *FileServer) moveFromDone(ctx proc.Context, d *proc.Delivery) {
	tag := d.Xfer
	op, ok := f.Ops[tag]
	if !ok || op.Kind != OpFWrite {
		return
	}
	if !d.OK {
		f.finishOp(ctx, tag, op, false, 0)
		return
	}
	op.Data = append([]byte(nil), d.Data...)
	ino := f.Inodes[op.FID]
	// Allocate blocks to cover the write.
	endBlock := (op.Off + op.N - 1) / BlockSize
	for uint32(len(ino.Blocks)) <= endBlock {
		if f.NextBID >= f.MaxBlocks {
			f.finishOp(ctx, tag, op, false, 0)
			return
		}
		ino.Blocks = append(ino.Blocks, f.NextBID)
		f.NextBID++
	}
	op.Cur = op.Off / BlockSize
	f.advanceWrite(ctx, tag, op, nil)
}

// advanceWrite processes file blocks in order. prevBlock, when non-nil, is
// the old content of block op.Cur fetched for a partial overwrite.
func (f *FileServer) advanceWrite(ctx proc.Context, tag uint16, op *fileOp, prevBlock []byte) {
	ino := f.Inodes[op.FID]
	end := op.Off + op.N
	for {
		blockStart := op.Cur * BlockSize
		if blockStart >= end {
			ino.Size = max32(ino.Size, end)
			f.WritesDone++
			f.finishOp(ctx, tag, op, true, op.N)
			return
		}
		bid := ino.Blocks[op.Cur]
		lo := max32(op.Off, blockStart)
		hi := min32(end, blockStart+BlockSize)
		full := lo == blockStart && hi == blockStart+BlockSize
		grewPast := blockStart >= ino.Size // block never held data
		if !full && !grewPast && prevBlock == nil {
			// Partial overwrite of existing data: read-modify-write.
			f.BlockWaiters[bid] = append(f.BlockWaiters[bid], tag)
			f.askCache(ctx, CGetMsg(bid))
			return
		}
		block := make([]byte, BlockSize)
		copy(block, prevBlock)
		prevBlock = nil
		copy(block[lo-blockStart:], op.Data[lo-op.Off:hi-op.Off])
		f.BlockWaiters[bid] = append(f.BlockWaiters[bid], tag)
		f.askCache(ctx, CPutMsg(bid, block))
		return // resume from the put acknowledgement
	}
}

// advanceRead fetches blocks until one needs the cache or assembly is done.
func (f *FileServer) advanceRead(ctx proc.Context, tag uint16, op *fileOp) {
	ino := f.Inodes[op.FID]
	end := op.Off + op.N
	for {
		blockStart := op.Cur * BlockSize
		if blockStart >= end {
			// Assembly complete: push to the client's area.
			if err := ctx.MoveTo(op.Area, 0, op.Data, tag); err != nil {
				f.finishOp(ctx, tag, op, false, 0)
			}
			return
		}
		if op.Cur < uint32(len(ino.Blocks)) {
			bid := ino.Blocks[op.Cur]
			f.BlockWaiters[bid] = append(f.BlockWaiters[bid], tag)
			f.askCache(ctx, CGetMsg(bid))
			return
		}
		// Hole past the last block: zeros, already in place.
		op.Cur++
	}
}

// cacheReply resumes the op waiting on this block id.
func (f *FileServer) cacheReply(ctx proc.Context, d *proc.Delivery) {
	if len(d.Body) < 5 {
		return
	}
	ok := d.Body[0] == StOK
	bid := binary.LittleEndian.Uint32(d.Body[1:])
	waiters := f.BlockWaiters[bid]
	if len(waiters) == 0 {
		return
	}
	tag := waiters[0]
	if len(waiters) == 1 {
		delete(f.BlockWaiters, bid)
	} else {
		f.BlockWaiters[bid] = waiters[1:]
	}
	op, live := f.Ops[tag]
	if !live {
		return
	}
	if !ok {
		f.finishOp(ctx, tag, op, false, 0)
		return
	}
	if op.Kind == OpFWrite {
		if len(d.Body) > 5 {
			// Old block content for a read-modify-write.
			f.advanceWrite(ctx, tag, op, d.Body[5:])
		} else {
			// Put acknowledged: next block.
			op.Cur++
			f.advanceWrite(ctx, tag, op, nil)
		}
		return
	}
	// Read: copy the fetched block's relevant slice into the assembly.
	if len(d.Body) > 5 {
		block := d.Body[5:]
		blockStart := op.Cur * BlockSize
		end := op.Off + op.N
		lo := max32(op.Off, blockStart)
		hi := min32(end, blockStart+BlockSize)
		copy(op.Data[lo-op.Off:hi-op.Off], block[lo-blockStart:hi-blockStart])
	}
	op.Cur++
	f.advanceRead(ctx, tag, op)
}

// moveToDone completes a read once the client's area has been filled.
func (f *FileServer) moveToDone(ctx proc.Context, d *proc.Delivery) {
	op, ok := f.Ops[d.Xfer]
	if !ok || op.Kind != OpFRead {
		return
	}
	f.ReadsDone++
	f.finishOp(ctx, d.Xfer, op, d.OK, op.N)
}

func (f *FileServer) finishOp(ctx proc.Context, tag uint16, op *fileOp, ok bool, n uint32) {
	delete(f.Ops, tag)
	if op.Area != link.NilID {
		ctx.DestroyLink(op.Area)
	}
	if ok {
		ctx.Send(op.Reply, U32Reply(n))
	} else {
		ctx.Send(op.Reply, ErrReply())
	}
}

func (f *FileServer) askCache(ctx proc.Context, body []byte) {
	reply, err := ctx.CreateLink(link.AttrReply, link.DataArea{})
	if err != nil {
		return
	}
	ctx.Send(f.CacheLink, body, reply)
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Snapshot implements proc.Body.
func (f *FileServer) Snapshot() ([]byte, error) { return proc.Snapshot(f) }

// Restore implements proc.Body.
func (f *FileServer) Restore(data []byte) error { return proc.Restore(f, data) }

var _ proc.Body = (*FileServer)(nil)
