package netw

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

func TestPartitionLosslessDropsAndHeals(t *testing.T) {
	eng, n, _, r2 := setup(Config{Latency: 100})
	var dead []*msg.Message
	n.OnDead = func(to addr.MachineID, m *msg.Message) { dead = append(dead, m) }

	n.Partition(1, 2)
	if !n.Partitioned(1, 2) || !n.Partitioned(2, 1) {
		t.Fatal("partition is not symmetric")
	}
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatalf("delivered %d frames across a partition", len(r2.got))
	}
	if len(dead) != 1 {
		t.Fatalf("dead sink got %d frames, want 1", len(dead))
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
	eng, n, _, r2 := setup(Config{LossRate: 0.0001, RetransTimeout: 500, MaxRetries: 3})
	var dead []*msg.Message
	n.OnDead = func(to addr.MachineID, m *msg.Message) { dead = append(dead, m) }
	n.Partition(1, 2)
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatalf("delivered %d frames across a permanent partition", len(r2.got))
	}
	if len(dead) != 1 {
		t.Fatalf("dead sink got %d frames, want 1 after retries exhausted", len(dead))
	}
	if s := n.Stats(); s.Dead != 1 {
		t.Fatalf("Dead=%d, want 1", s.Dead)
	}
}

func TestLossBurstLossless(t *testing.T) {
	eng, n, _, r2 := setup(Config{Latency: 100})
	var dead int
	n.OnDead = func(addr.MachineID, *msg.Message) { dead++ }

	n.LossBurst(1.0, 10_000) // certain loss until t=10_000
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatal("frame survived a rate-1.0 burst")
	}
	s := n.Stats()
	if s.BurstDropped != 1 || dead != 1 {
		t.Fatalf("BurstDropped=%d dead=%d, want 1/1", s.BurstDropped, dead)
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
	eng, n, _, r2 := setup(Config{Latency: 100})
	var dead int
	n.OnDead = func(addr.MachineID, *msg.Message) { dead++ }
	n.SetDown(1, true)
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatal("a crashed machine's send was delivered")
	}
	s := n.Stats()
	if s.SendFromDown != 1 {
		t.Fatalf("SendFromDown=%d, want 1", s.SendFromDown)
	}
	if dead != 1 {
		t.Fatalf("dead sink got %d frames, want 1", dead)
	}

	n.SetDown(1, false)
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 1 {
		t.Fatalf("delivered %d frames after recovery, want 1", len(r2.got))
	}
}

// ownerRec records the envelopes the network hands back to a machine.
type ownerRec struct {
	recorder
	released, undeliverable int
}

func (o *ownerRec) ReleaseFrame(*msg.Message)                       { o.released++ }
func (o *ownerRec) UndeliverableFrame(addr.MachineID, *msg.Message) { o.undeliverable++ }

// TestSendToDownLossless pins the down-receiver rule: a lossless frame that
// reaches a down machine is an orphan drop — counted, its pooled envelope
// retired to the sender as a completed send, and nothing echoed back (no
// OnDead, no UndeliverableFrame).
func TestSendToDownLossless(t *testing.T) {
	eng := sim.NewEngine(99)
	n := New(eng, Config{Latency: 100})
	o1, r2 := &ownerRec{}, &recorder{eng: eng}
	n.Attach(1, o1)
	n.Attach(2, r2)
	var dead int
	n.OnDead = func(addr.MachineID, *msg.Message) { dead++ }
	n.SetDown(2, true)
	pool := msg.NewPool()
	m := pool.Get()
	m.Kind, m.From, m.To = msg.KindUser, addr.KernelAddr(1), addr.KernelAddr(2)
	n.Send(1, 2, m)
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatal("delivered to a down machine")
	}
	s := n.Stats()
	if s.Dropped != 2 || s.OrphanDropped != 2 || s.Dead != 0 || dead != 0 {
		t.Fatalf("Dropped=%d OrphanDropped=%d Dead=%d OnDead calls=%d, want 2/2/0/0",
			s.Dropped, s.OrphanDropped, s.Dead, dead)
	}
	if o1.released != 1 || o1.undeliverable != 0 {
		t.Fatalf("sender saw released=%d undeliverable=%d, want the pooled envelope retired once and no echo",
			o1.released, o1.undeliverable)
	}
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
