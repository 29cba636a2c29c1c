package netw

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

func TestPartitionLosslessDropsAndHeals(t *testing.T) {
	eng, n, o1, r2 := setupOwned(Config{Latency: 100})

	n.Partition(1, 2)
	if !n.Partitioned(1, 2) || !n.Partitioned(2, 1) {
		t.Fatal("partition is not symmetric")
	}
	n.Send(1, 2, pooledFrame(o1, 2))
	o1.balanced(t, "sender, as Send returns")
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatalf("delivered %d frames across a partition", len(r2.got))
	}
	s := n.Stats()
	if s.PartitionDropped != 1 || s.Dropped != 1 {
		t.Fatalf("PartitionDropped=%d Dropped=%d, want 1/1", s.PartitionDropped, s.Dropped)
	}

	n.Heal(1, 2)
	if n.Partitioned(1, 2) {
		t.Fatal("still partitioned after Heal")
	}
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 1 {
		t.Fatalf("delivered %d frames after heal, want 1", len(r2.got))
	}
}

func TestPartitionARQRecoversAfterHeal(t *testing.T) {
	eng, n, _, r2 := setup(Config{LossRate: 0.0001, RetransTimeout: 1000, MaxRetries: 50})
	n.Partition(1, 2)
	n.Send(1, 2, frame(8))
	// Heal mid-flight: the pending retransmission should get through.
	eng.After(5_000, "test:heal", func() { n.Heal(1, 2) })
	eng.Run()
	if len(r2.got) != 1 {
		t.Fatalf("delivered %d frames, want 1 (ARQ should survive a healed partition)", len(r2.got))
	}
	if s := n.Stats(); s.Retransmits == 0 {
		t.Fatal("expected retransmissions while partitioned")
	}
}

func TestPartitionARQExhaustsRetries(t *testing.T) {
	eng, n, o1, r2 := setupOwned(Config{LossRate: 0.0001, RetransTimeout: 500, MaxRetries: 3})
	n.Partition(1, 2)
	n.Send(1, 2, pooledFrame(o1, 2))
	stepUntilDead(t, eng, n)
	if len(r2.got) != 0 {
		t.Fatalf("delivered %d frames across a permanent partition", len(r2.got))
	}
	if s := n.Stats(); s.Dead != 1 {
		t.Fatalf("Dead=%d, want 1", s.Dead)
	}
}

func TestLossBurstLossless(t *testing.T) {
	eng, n, o1, r2 := setupOwned(Config{Latency: 100})

	n.LossBurst(1.0, 10_000) // certain loss until t=10_000
	n.Send(1, 2, pooledFrame(o1, 2))
	o1.balanced(t, "sender, as Send returns")
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatal("frame survived a rate-1.0 burst")
	}
	if s := n.Stats(); s.BurstDropped != 1 || s.Dropped != 1 {
		t.Fatalf("BurstDropped=%d Dropped=%d, want 1/1", s.BurstDropped, s.Dropped)
	}

	// After the burst window the drop probability is gone.
	eng.At(20_000, "test:send", func() { n.Send(1, 2, frame(8)) })
	eng.Run()
	if len(r2.got) != 1 {
		t.Fatalf("delivered %d frames after burst expiry, want 1", len(r2.got))
	}
}

func TestDuplicateNextLosslessDeliversTwice(t *testing.T) {
	eng, n, _, r2 := setup(Config{Latency: 100})
	n.DuplicateNext(1, 2, 1)
	n.Send(1, 2, frame(8))
	n.Send(1, 2, frame(8)) // second send: injection already consumed
	eng.Run()
	if len(r2.got) != 3 {
		t.Fatalf("delivered %d frames, want 3 (one duplicated, one clean)", len(r2.got))
	}
	if s := n.Stats(); s.DupInjected != 1 {
		t.Fatalf("DupInjected=%d, want 1", s.DupInjected)
	}
}

func TestDuplicateNextARQSuppressedByDedup(t *testing.T) {
	eng, n, _, r2 := setup(Config{LossRate: 0.0001, RetransTimeout: 5000, MaxRetries: 10})
	n.DuplicateNext(1, 2, 1)
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 1 {
		t.Fatalf("delivered %d frames, want 1 (receiver dedup must eat the wire duplicate)", len(r2.got))
	}
	s := n.Stats()
	if s.DupInjected != 1 {
		t.Fatalf("DupInjected=%d, want 1", s.DupInjected)
	}
	if s.Duplicates == 0 {
		t.Fatal("receiver dedup never counted the suppressed copy")
	}
}

func TestDelayNextReorders(t *testing.T) {
	eng, n, _, r2 := setup(Config{Latency: 100})
	n.DelayNext(1, 2, 50_000)
	a := frame(8)
	a.Seq = 1
	b := frame(8)
	b.Seq = 2
	n.Send(1, 2, a) // held back 50_000
	n.Send(1, 2, b) // normal transit: overtakes a
	eng.Run()
	if len(r2.got) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(r2.got))
	}
	if r2.got[0].Seq != 2 || r2.got[1].Seq != 1 {
		t.Fatalf("delayed frame not reordered: got seqs %d,%d", r2.got[0].Seq, r2.got[1].Seq)
	}
	if s := n.Stats(); s.DelayInjected != 1 {
		t.Fatalf("DelayInjected=%d, want 1", s.DelayInjected)
	}
}

func TestSendFromDownCounted(t *testing.T) {
	eng, n, o1, r2 := setupOwned(Config{Latency: 100})
	n.SetDown(1, true)
	n.Send(1, 2, pooledFrame(o1, 2))
	o1.balanced(t, "sender, as Send returns")
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatal("a crashed machine's send was delivered")
	}
	if s := n.Stats(); s.SendFromDown != 1 || s.Dropped != 0 {
		t.Fatalf("SendFromDown=%d Dropped=%d, want 1/0: the loss is counted once", s.SendFromDown, s.Dropped)
	}

	n.SetDown(1, false)
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 1 {
		t.Fatalf("delivered %d frames after recovery, want 1", len(r2.got))
	}
}

// ownerRec is a kernel-shaped endpoint: it lends the ARQ an envelope pool,
// records what is delivered to it (as heap copies) and releases every
// envelope it is given, as a kernel does.
type ownerRec struct {
	recorder
	pool *msg.Pool
}

func (o *ownerRec) DeliverFrame(m *msg.Message) {
	o.recorder.DeliverFrame(m.Clone())
	o.pool.Put(m)
}
func (o *ownerRec) FramePool() *msg.Pool { return o.pool }

func newOwnerRec(eng *sim.Engine) *ownerRec {
	return &ownerRec{recorder: recorder{eng: eng}, pool: msg.NewPool()}
}

// balanced fails the test unless every envelope o's pool constructed is back
// on its free list.
func (o *ownerRec) balanced(t *testing.T, who string) {
	t.Helper()
	if o.pool.Free() != o.pool.News() {
		t.Fatalf("%s: pool constructed %d envelopes, %d are free — the rest leaked", who, o.pool.News(), o.pool.Free())
	}
}

// setupOwned is setup with kernel-shaped endpoints.
func setupOwned(cfg Config) (*sim.Engine, *Network, *ownerRec, *ownerRec) {
	eng := sim.NewEngine(99)
	n := New(eng, cfg)
	o1, o2 := newOwnerRec(eng), newOwnerRec(eng)
	n.Attach(1, o1)
	n.Attach(2, o2)
	return eng, n, o1, o2
}

// stepUntilDead fires events until the network abandons a flight at
// MaxRetries, and fails the test unless the master is back in its pool at
// that very event and the engine has nothing left to fire: the loss is
// released where it dies, with no later event to hand it anywhere.
func stepUntilDead(t *testing.T, eng *sim.Engine, n *Network) {
	t.Helper()
	for n.stats.Dead == 0 && eng.Step() {
	}
	if n.stats.Dead != 1 {
		t.Fatalf("Dead=%d at quiescence, want 1", n.stats.Dead)
	}
	for m := range n.ms {
		if o, ok := n.ms[m].owner.(*ownerRec); ok {
			o.balanced(t, "pool, at the abandoning check")
		}
	}
	if eng.Step() {
		t.Fatal("an event fired after the flight was abandoned")
	}
}

// TestSendToDownLossless pins the down-receiver rule: a lossless frame that
// reaches a down machine is an orphan drop — counted, and its pooled envelope
// back in the sender's pool as a completed send.
func TestSendToDownLossless(t *testing.T) {
	eng := sim.NewEngine(99)
	n := New(eng, Config{Latency: 100})
	o1, r2 := newOwnerRec(eng), &recorder{eng: eng}
	n.Attach(1, o1)
	n.Attach(2, r2)
	n.SetDown(2, true)
	m := o1.pool.Get()
	m.Kind, m.From, m.To = msg.KindUser, addr.KernelAddr(1), addr.KernelAddr(2)
	n.Send(1, 2, m)
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatal("delivered to a down machine")
	}
	s := n.Stats()
	if s.Dropped != 2 || s.OrphanDropped != 2 || s.Dead != 0 {
		t.Fatalf("Dropped=%d OrphanDropped=%d Dead=%d, want 2/2/0",
			s.Dropped, s.OrphanDropped, s.Dead)
	}
	o1.balanced(t, "sender")
}

func TestSendToDownARQDeliversAfterRecovery(t *testing.T) {
	eng, n, _, r2 := setup(Config{LossRate: 0.0001, RetransTimeout: 1000, MaxRetries: 50})
	n.SetDown(2, true)
	n.Send(1, 2, frame(8))
	eng.After(4_000, "test:up", func() { n.SetDown(2, false) })
	eng.Run()
	if len(r2.got) != 1 {
		t.Fatalf("delivered %d frames, want 1 (ARQ should retry past the outage)", len(r2.got))
	}
}
