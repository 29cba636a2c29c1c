package fs

import (
	"encoding/binary"

	"demosmp/internal/link"
	"demosmp/internal/proc"
)

// CacheKind is the registry name of the buffer cache body.
const CacheKind = "fs-cache"

// Cache is the buffer manager: a write-through LRU block cache in front of
// the disk driver. Link slot 1 (installed at spawn) must point at the disk.
//
// All replies from cache and disk echo the block id, so requesters can
// correlate out-of-order completions: status(1) + bid(4) [+ data].
type Cache struct {
	DiskLink link.ID
	Capacity int

	Blocks map[uint32][]byte
	LRU    []uint32 // least recent first

	// Waiters hold client reply links per in-flight block id.
	ReadWaiters  map[uint32][]link.ID
	WriteWaiters map[uint32][]link.ID

	Hits, Misses, WriteThroughs uint64
}

// NewCache returns a cache of capacity blocks whose disk link is slot 1.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 64
	}
	return &Cache{
		DiskLink:     1,
		Capacity:     capacity,
		Blocks:       make(map[uint32][]byte),
		ReadWaiters:  make(map[uint32][]link.ID),
		WriteWaiters: make(map[uint32][]link.ID),
	}
}

// Kind implements proc.Body.
func (c *Cache) Kind() string { return CacheKind }

// Step implements proc.Body.
func (c *Cache) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if len(d.Body) < 1 {
			continue
		}
		switch d.Body[0] {
		case OpCGet:
			c.get(ctx, d)
		case OpCPut:
			c.put(ctx, d)
		case StOK, StErr:
			c.diskReply(ctx, d)
		}
	}
}

func (c *Cache) get(ctx proc.Context, d *proc.Delivery) {
	if len(d.Body) < 5 || len(d.Carried) == 0 {
		return
	}
	bid := binary.LittleEndian.Uint32(d.Body[1:])
	reply := d.Carried[0]
	if block, ok := c.Blocks[bid]; ok {
		c.Hits++
		c.touch(bid)
		ctx.Send(reply, OKReply(append(binary.LittleEndian.AppendUint32(nil, bid), block...)))
		return
	}
	c.Misses++
	c.ReadWaiters[bid] = append(c.ReadWaiters[bid], reply)
	if len(c.ReadWaiters[bid]) == 1 {
		c.askDisk(ctx, BReadMsg(bid))
	}
}

func (c *Cache) put(ctx proc.Context, d *proc.Delivery) {
	if len(d.Body) < 5 || len(d.Carried) == 0 {
		return
	}
	bid := binary.LittleEndian.Uint32(d.Body[1:])
	data := d.Body[5:]
	block := make([]byte, BlockSize)
	copy(block, data)
	c.insert(bid, block)
	c.WriteThroughs++
	c.WriteWaiters[bid] = append(c.WriteWaiters[bid], d.Carried[0])
	c.askDisk(ctx, BWriteMsg(bid, data))
}

// askDisk sends a disk request with a fresh single-use reply link.
func (c *Cache) askDisk(ctx proc.Context, body []byte) {
	reply, err := ctx.CreateLink(link.AttrReply, link.DataArea{})
	if err != nil {
		return
	}
	ctx.Send(c.DiskLink, body, reply)
}

// diskReply fans a disk completion out to the waiting clients.
func (c *Cache) diskReply(ctx proc.Context, d *proc.Delivery) {
	if len(d.Body) < 5 {
		return
	}
	ok := d.Body[0] == StOK
	bid := binary.LittleEndian.Uint32(d.Body[1:])
	if !ok && len(c.ReadWaiters[bid]) > 0 {
		// A failed read carries no block, so it is 5 bytes like a
		// write completion; disambiguate by who is waiting.
		waiters := c.ReadWaiters[bid]
		delete(c.ReadWaiters, bid)
		for _, w := range waiters {
			ctx.Send(w, append(ErrReply(), d.Body[1:5]...))
		}
		return
	}
	if len(d.Body) > 5 { // read completion carries the block
		if waiters := c.ReadWaiters[bid]; len(waiters) > 0 {
			delete(c.ReadWaiters, bid)
			var payload []byte
			if ok {
				block := make([]byte, BlockSize)
				copy(block, d.Body[5:])
				c.insert(bid, block)
				payload = OKReply(append(binary.LittleEndian.AppendUint32(nil, bid), block...))
			} else {
				payload = append(ErrReply(), d.Body[1:5]...)
			}
			for _, w := range waiters {
				ctx.Send(w, payload)
			}
		}
		return
	}
	// Write-through completion.
	if waiters := c.WriteWaiters[bid]; len(waiters) > 0 {
		w := waiters[0]
		if len(waiters) == 1 {
			delete(c.WriteWaiters, bid)
		} else {
			c.WriteWaiters[bid] = waiters[1:]
		}
		status := append([]byte{StErr}, d.Body[1:5]...)
		if ok {
			status = OKReply(d.Body[1:5])
		}
		ctx.Send(w, status)
	}
}

func (c *Cache) insert(bid uint32, block []byte) {
	if _, ok := c.Blocks[bid]; !ok && len(c.Blocks) >= c.Capacity {
		// Evict least recently used (write-through keeps it clean).
		victim := c.LRU[0]
		c.LRU = c.LRU[1:]
		delete(c.Blocks, victim)
	}
	c.Blocks[bid] = block
	c.touch(bid)
}

func (c *Cache) touch(bid uint32) {
	for i, b := range c.LRU {
		if b == bid {
			c.LRU = append(c.LRU[:i], c.LRU[i+1:]...)
			break
		}
	}
	c.LRU = append(c.LRU, bid)
}

// Snapshot implements proc.Body.
func (c *Cache) Snapshot() ([]byte, error) { return proc.Snapshot(c) }

// Restore implements proc.Body.
func (c *Cache) Restore(data []byte) error { return proc.Restore(c, data) }

var _ proc.Body = (*Cache)(nil)
