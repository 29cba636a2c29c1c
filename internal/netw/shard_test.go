package netw

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// twoShards is the cluster's transport in miniature: machine 1 on one
// engine, machine 2 on another, each with a kernel-shaped endpoint, frames
// for the other shard shipped into an outbox, and a sim.Group whose barrier
// does what core's does — send parked envelopes home, then file the shipped
// frames in the receiving calendar.
type twoShards struct {
	nets   [2]*Network
	o      [2]*ownerRec
	out    [2][]RemoteFrame
	group  *sim.Group
	parked int // most envelopes found parked in the return pools at one barrier
}

func newTwoShards(cfg Config) *twoShards {
	h := &twoShards{group: &sim.Group{Lookahead: 100}}
	for s := range h.nets {
		eng := sim.NewEngine(99)
		n := New(eng, cfg)
		n.SetCanonical(2, 99,
			func(m addr.MachineID) bool { return int(m)-1 == s },
			func(f RemoteFrame) { h.out[f.To-1] = append(h.out[f.To-1], f) })
		h.o[s] = newOwnerRec(eng)
		n.Attach(addr.MachineID(s+1), h.o[s])
		h.nets[s] = n
		h.group.Engines = append(h.group.Engines, eng)
	}
	h.group.Barrier = h.barrier
	return h
}

func (h *twoShards) barrier() {
	parked := 0
	for _, n := range h.nets {
		parked += n.ret.Free()
		n.SendHome()
		if n.ret.Free() != 0 {
			panic("SendHome left envelopes parked")
		}
	}
	h.parked = max(h.parked, parked)
	for s, q := range h.out {
		for _, f := range q {
			h.nets[s].EnqueueRemote(f)
		}
		h.out[s] = nil
	}
}

// TestCrossShardEnvelopeGoesHome: a pooled envelope crosses the shard as
// itself — no copy — and the receiver's release parks it in the receiving
// shard's return pool instead of writing the sender's pool from the wrong
// goroutine; the barrier sends it home. A frame that lands on a down
// receiver goes the same way (dropToDown).
func TestCrossShardEnvelopeGoesHome(t *testing.T) {
	h := newTwoShards(Config{Latency: 100})
	m := pooledFrame(h.o[0], 2)
	h.nets[0].Send(1, 2, m)
	if len(h.out[1]) != 1 || h.out[1][0].M != m {
		t.Fatal("the shipped frame is not the sender's envelope")
	}
	h.group.RunUntilIdle()
	if len(h.o[1].got) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(h.o[1].got))
	}
	if h.parked != 1 {
		t.Fatalf("%d envelopes parked at the barrier, want the one that crossed", h.parked)
	}
	h.o[0].balanced(t, "sender")

	h.nets[1].SetDown(2, true)
	h.nets[0].Send(1, 2, pooledFrame(h.o[0], 2))
	h.group.RunUntilIdle()
	if s := h.nets[1].Stats(); s.OrphanDropped != 1 {
		t.Fatalf("OrphanDropped = %d, want 1", s.OrphanDropped)
	}
	h.o[0].balanced(t, "sender after a drop at a down receiver")
	if n := h.o[1].pool.News(); n != 0 {
		t.Fatalf("receiver's pool constructed %d envelopes for traffic it only received", n)
	}
}

// TestCrossShardARQCopiesComeFromTheSender: on a lossy network a wire copy
// bound for another shard comes out of the sending machine's pool and goes
// home through the receiving shard's return pool; the master never leaves
// the sender's shard. Both pools balance on their own at quiescence.
func TestCrossShardARQCopiesComeFromTheSender(t *testing.T) {
	h := newTwoShards(arqQuiet)
	for range 3 {
		h.nets[0].Send(1, 2, pooledFrame(h.o[0], 2))
	}
	h.group.RunUntilIdle()
	if len(h.o[1].got) != 3 || h.nets[0].InflightARQ() != 0 {
		t.Fatalf("delivered %d of 3 with %d flights left", len(h.o[1].got), h.nets[0].InflightARQ())
	}
	if h.parked == 0 {
		t.Fatal("no wire copy was parked: the copies did not come from the sender's pool")
	}
	if n := h.o[1].pool.News(); n != 0 {
		t.Fatalf("receiver's pool constructed %d envelopes, want 0: cross-shard copies are the sender's", n)
	}
	h.o[0].balanced(t, "sender")
}

// TestOwnerlessDropReleases: a lossless frame abandoned by a sender that
// lends no pool is counted once, under its cause, and goes back to the pool
// it came from as Send returns.
func TestOwnerlessDropReleases(t *testing.T) {
	eng, n, _, _ := setup(Config{Latency: 100})
	p := msg.NewPool()
	m := p.Get()
	m.Kind, m.From, m.To = msg.KindUser, addr.KernelAddr(1), addr.KernelAddr(2)
	n.Partition(1, 2)
	n.Send(1, 2, m)
	if p.Free() != 1 {
		t.Fatalf("the abandoned envelope is not back in its pool as Send returns (%d free of %d)", p.Free(), p.News())
	}
	eng.Run()
	if s := n.Stats(); s.OrphanDropped != 0 || s.PartitionDropped != 1 {
		t.Fatalf("OrphanDropped=%d PartitionDropped=%d, want 0/1", s.OrphanDropped, s.PartitionDropped)
	}
	if p.Free() != 1 {
		t.Fatalf("the abandoned envelope is not back in its pool (%d free of %d)", p.Free(), p.News())
	}
}
