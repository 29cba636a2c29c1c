package fs

import (
	"encoding/binary"

	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
)

// DiskKind is the registry name of the disk driver body.
const DiskKind = "fs-disk"

// DiskGeometry models a small winchester drive of the paper's era.
type DiskGeometry struct {
	Blocks       uint32   // capacity in blocks
	SeekPerBlock sim.Time // µs of head movement per block of distance
	MinLatency   sim.Time // controller + rotational minimum per op
}

// DefaultGeometry is a ~5 MB drive with multi-millisecond access times.
func DefaultGeometry() DiskGeometry {
	return DiskGeometry{Blocks: 10240, SeekPerBlock: 2, MinLatency: 8000}
}

// diskOp is one queued request.
type diskOp struct {
	Write bool
	BID   uint32
	Data  []byte
	Reply link.ID // reply link (already installed in the table)
}

// Disk is the disk driver body. The platter contents live in the body's
// state so the whole drive migrates with the process — physically absurd
// for a real disk (the paper notes "Servers are often tied to unmovable
// resources"), but exactly what makes the simulated driver migratable for
// experiments.
type Disk struct {
	Geom    DiskGeometry
	Platter map[uint32][]byte
	LastBID uint32

	Queue   []diskOp
	Busy    bool
	Reads   uint64
	Writes  uint64
	nextTag uint16
}

// NewDisk returns a zero-filled drive.
func NewDisk(geom DiskGeometry) *Disk {
	if geom.Blocks == 0 {
		geom = DefaultGeometry()
	}
	return &Disk{Geom: geom, Platter: make(map[uint32][]byte)}
}

// Kind implements proc.Body.
func (d *Disk) Kind() string { return DiskKind }

// Step implements proc.Body.
func (d *Disk) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		del, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if del.Op == msg.OpTimer { // the current operation finished
			d.finishOp(ctx)
			continue
		}
		if len(del.Body) < 5 || len(del.Carried) == 0 {
			continue
		}
		op := diskOp{
			Write: del.Body[0] == OpBWrite,
			BID:   binary.LittleEndian.Uint32(del.Body[1:]),
			Reply: del.Carried[0],
		}
		if op.Write {
			op.Data = append([]byte(nil), del.Body[5:]...)
		}
		d.Queue = append(d.Queue, op)
		d.startNext(ctx)
	}
}

// startNext arms the service timer for the head-of-queue operation.
func (d *Disk) startNext(ctx proc.Context) {
	if d.Busy || len(d.Queue) == 0 {
		return
	}
	d.Busy = true
	op := d.Queue[0]
	dist := int64(op.BID) - int64(d.LastBID)
	if dist < 0 {
		dist = -dist
	}
	latency := d.Geom.MinLatency + sim.Time(dist)*d.Geom.SeekPerBlock
	d.nextTag++
	ctx.SetTimer(latency, d.nextTag)
}

func (d *Disk) finishOp(ctx proc.Context) {
	if len(d.Queue) == 0 {
		d.Busy = false
		return
	}
	op := d.Queue[0]
	d.Queue = d.Queue[1:]
	d.Busy = false
	d.LastBID = op.BID

	reply := op.Reply
	bid := binary.LittleEndian.AppendUint32(nil, op.BID)
	if op.BID >= d.Geom.Blocks {
		ctx.Send(reply, append(ErrReply(), bid...))
	} else if op.Write {
		block := make([]byte, BlockSize)
		copy(block, op.Data)
		d.Platter[op.BID] = block
		d.Writes++
		ctx.Send(reply, OKReply(bid))
	} else {
		d.Reads++
		block := d.Platter[op.BID]
		if block == nil {
			block = make([]byte, BlockSize) // unwritten blocks read as zeros
		}
		ctx.Send(reply, OKReply(append(bid, block...)))
	}
	d.startNext(ctx)
}

// Snapshot implements proc.Body.
func (d *Disk) Snapshot() ([]byte, error) { return proc.Snapshot(d) }

// Restore implements proc.Body.
func (d *Disk) Restore(data []byte) error { return proc.Restore(d, data) }

var _ proc.Body = (*Disk)(nil)
