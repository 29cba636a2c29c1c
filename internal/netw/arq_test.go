package netw

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// Flight life-cycle pins. Every test runs between kernel-shaped endpoints
// (ownerRec) sending pooled envelopes, and ends with each pool holding every
// envelope it constructed: masters and wire copies all found their way
// home.

// arqQuiet arms the ARQ without ever losing a frame to the hash draw.
var arqQuiet = Config{LossRate: 1e-12, Latency: 100, RetransTimeout: 5000, MaxRetries: 10}

// pooledFrame draws a user frame from o's pool, addressed from machine 1.
func pooledFrame(o *ownerRec, to addr.MachineID) *msg.Message {
	m := o.pool.Get()
	m.Kind, m.From, m.To = msg.KindUser, addr.KernelAddr(1), addr.KernelAddr(to)
	m.Body = append(m.Body, "payload"...)
	return m
}

// flightOf returns the live flight machine from holds for seq, or nil.
func flightOf(n *Network, from addr.MachineID, seq uint64) *arqFlight {
	tab := n.flights[from].tab
	if fl := tab[seq&uint64(len(tab)-1)]; fl != nil && fl.seq == seq {
		return fl
	}
	return nil
}

func freeFlights(n *Network) int {
	c := 0
	for fl := n.flightFree; fl != nil; fl = fl.next {
		c++
	}
	return c
}

// TestFlightAckCancelsCheck: the ack finishes the flight on the spot — out of
// the table, master released, check cancelled, record back on the free list
// — so the check never fires, the next send reuses the record, and a stale
// Cancel of the old check's handle touches nothing.
func TestFlightAckCancelsCheck(t *testing.T) {
	eng, n, o1, o2 := setupOwned(arqQuiet)
	checks := 0
	eng.OnFire = func(name string, _ sim.Time) {
		if name == "netw:retrans-check" {
			checks++
		}
	}
	n.Send(1, 2, pooledFrame(o1, 2))
	fl1 := flightOf(n, 1, 1)
	if fl1 == nil || n.InflightARQ() != 1 {
		t.Fatalf("after Send: flight %v, InflightARQ %d", fl1, n.InflightARQ())
	}
	stale := fl1.ev
	for n.InflightARQ() > 0 {
		eng.Step()
	}
	if eng.Now() >= arqQuiet.RetransTimeout {
		t.Fatalf("ack landed at %v, after the retransmission check", eng.Now())
	}
	if fl1.m != nil || flightOf(n, 1, 1) != nil {
		t.Fatal("acked flight still holds its master or its table slot")
	}
	if n.flightFree != fl1 || freeFlights(n) != 1 {
		t.Fatalf("after the ack: %d free records, the acked one first: %v", freeFlights(n), n.flightFree == fl1)
	}
	o1.balanced(t, "sender after the ack") // the master is back
	eng.Run()
	if eng.Now() >= arqQuiet.RetransTimeout || eng.Pending() != 0 {
		t.Fatalf("Run ended at %v with %d events pending: the cancelled check kept the engine alive", eng.Now(), eng.Pending())
	}
	n.Send(1, 2, pooledFrame(o1, 2))
	if fl2 := flightOf(n, 1, 2); fl2 != fl1 || freeFlights(n) != 0 {
		t.Fatalf("second send did not reuse the acked flight's record (%p vs %p)", fl2, fl1)
	}
	pending := eng.Pending()
	eng.Cancel(stale) // the first check's tombstone: still queued, already cancelled
	if eng.Pending() != pending {
		t.Fatal("a stale Cancel of the first check's handle cancelled a live event")
	}
	eng.RunFor(3 * arqQuiet.RetransTimeout) // past every tombstone: their slots are recycled
	n.Send(1, 2, pooledFrame(o1, 2))        // schedules into those slots
	pending = eng.Pending()
	eng.Cancel(stale)
	if eng.Pending() != pending {
		t.Fatal("a stale Cancel cancelled the event now in its recycled slot")
	}
	eng.Run()
	if len(o2.got) != 3 || n.Stats().Retransmits != 0 || checks != 0 {
		t.Fatalf("delivered %d frames with %d retransmissions and %d checks fired, want 3/0/0",
			len(o2.got), n.Stats().Retransmits, checks)
	}
	if n.InflightARQ() != 0 || freeFlights(n) != 1 {
		t.Fatalf("InflightARQ %d with %d free records at quiescence, want 0/1", n.InflightARQ(), freeFlights(n))
	}
	o1.balanced(t, "sender")
	o2.balanced(t, "receiver")
}

// TestFlightLateAndDuplicateAcks: an ack for a sequence whose flight has
// finished is ignored — also when its record has been recycled and now
// carries a newer sequence that maps to the same table slot.
func TestFlightLateAndDuplicateAcks(t *testing.T) {
	eng, n, o1, o2 := setupOwned(arqQuiet)
	ack := func(seq uint64) {
		n.arqLand(pendEnt{class: classAck, to: 1, from: 2, seq: seq})
	}
	for i := 0; i < flightMinTable; i++ { // sequences 1..16, all finished
		n.Send(1, 2, pooledFrame(o1, 2))
		eng.Run()
	}
	recycled := n.flightFree
	n.Send(1, 2, pooledFrame(o1, 2)) // sequence 17: slot of sequence 1
	fl := flightOf(n, 1, flightMinTable+1)
	if fl == nil || fl != recycled {
		t.Fatal("sequence 17 did not reuse the recycled record")
	}
	if len(n.flights[1].tab) != flightMinTable {
		t.Fatalf("table grew to %d with one flight live", len(n.flights[1].tab))
	}
	ack(1) // late ack for the slot's previous tenant
	if n.InflightARQ() != 1 || fl.m == nil {
		t.Fatal("a late ack for sequence 1 finished the flight of sequence 17")
	}
	ack(flightMinTable + 1)
	if n.InflightARQ() != 0 || fl.m != nil {
		t.Fatal("the flight's own ack did not finish it")
	}
	ack(flightMinTable + 1) // duplicate: a second release would panic in Put
	ack(999)                // never sent
	eng.Run()
	if n.InflightARQ() != 0 || len(o2.got) != flightMinTable+1 {
		t.Fatalf("InflightARQ %d, delivered %d", n.InflightARQ(), len(o2.got))
	}
	o1.balanced(t, "sender")
	o2.balanced(t, "receiver")
}

// TestFlightExhaustsRetries: after MaxRetries the master — the sender's own
// envelope, never released at send — is counted Dead and released exactly
// once, at the check that abandons it, and the flight is gone.
func TestFlightExhaustsRetries(t *testing.T) {
	cfg := arqQuiet
	cfg.MaxRetries = 4
	eng, n, o1, o2 := setupOwned(cfg)
	n.Partition(1, 2)
	n.Send(1, 2, pooledFrame(o1, 2))
	stepUntilDead(t, eng, n)
	if s := n.Stats(); s.Dead != 1 || s.Retransmits != 3 {
		t.Fatalf("Dead=%d Retransmits=%d, want 1/3", s.Dead, s.Retransmits)
	}
	if n.InflightARQ() != 0 || flightOf(n, 1, 1) != nil || freeFlights(n) != 1 {
		t.Fatalf("InflightARQ %d, slot %v, %d free records: the abandoned flight is not gone",
			n.InflightARQ(), flightOf(n, 1, 1), freeFlights(n))
	}
	if len(o2.got) != 0 {
		t.Fatal("delivered across a permanent partition")
	}
	o1.balanced(t, "sender")
	o2.balanced(t, "receiver")
}

// TestFlightReceiverDownThenUp: wire copies landing on a down receiver are
// released, not leaked; once it is back the message is delivered exactly once.
func TestFlightReceiverDownThenUp(t *testing.T) {
	cfg := arqQuiet
	cfg.RetransTimeout, cfg.MaxRetries = 1000, 50
	eng, n, o1, o2 := setupOwned(cfg)
	n.SetDown(2, true)
	n.DuplicateNext(1, 2, 1) // the injected duplicate lands on the down receiver too
	n.Send(1, 2, pooledFrame(o1, 2))
	eng.After(4500, "test:up", func() { n.SetDown(2, false) })
	eng.Run()
	s := n.Stats()
	if s.Dropped != 5 || s.Retransmits != 5 {
		t.Fatalf("Dropped=%d Retransmits=%d, want 5 attempts dropped at the down receiver, the sixth delivered", s.Dropped, s.Retransmits)
	}
	if len(o2.got) != 1 || string(o2.got[0].Body) != "payload" || o2.got[0].Hops != 6 {
		t.Fatalf("delivered %v, want the payload once with 6 hops", o2.got)
	}
	if o2.pool.News() != 2 {
		t.Fatalf("receiver pool constructed %d envelopes for 7 wire copies, want 2 (the first attempt and its duplicate, then reuse)", o2.pool.News())
	}
	if n.InflightARQ() != 0 || n.PendingFrames() != 0 {
		t.Fatalf("InflightARQ %d PendingFrames %d at quiescence", n.InflightARQ(), n.PendingFrames())
	}
	o1.balanced(t, "sender")
	o2.balanced(t, "receiver")
}

// TestFlightTableGrowsPastOldFlight: the direct-mapped table doubles when a
// new sequence maps to the slot of an older flight that is still un-acked —
// 16, 32, … sequences later — and both stay reachable.
func TestFlightTableGrowsPastOldFlight(t *testing.T) {
	cfg := arqQuiet
	cfg.MaxRetries = 1000
	eng := sim.NewEngine(99)
	n := New(eng, cfg)
	o1, o2, o3 := newOwnerRec(eng), newOwnerRec(eng), newOwnerRec(eng)
	n.Attach(1, o1)
	n.Attach(2, o2)
	n.Attach(3, o3)

	n.Partition(1, 3)
	n.Send(1, 3, pooledFrame(o1, 3)) // sequence 1: stuck behind the partition
	old := flightOf(n, 1, 1)
	sizes := map[int]bool{}
	const frames = 4*flightMinTable + 3
	for i := 0; i < frames; i++ {
		n.Send(1, 2, pooledFrame(o1, 2))
		for n.InflightARQ() > 1 {
			eng.Step()
		}
		sizes[len(n.flights[1].tab)] = true
		if flightOf(n, 1, 1) != old {
			t.Fatalf("after sequence %d the old flight is no longer reachable", i+2)
		}
	}
	if !sizes[flightMinTable] || !sizes[2*flightMinTable] || !sizes[4*flightMinTable] || !sizes[8*flightMinTable] || len(sizes) != 4 {
		t.Fatalf("table sizes seen: %v, want 16, 32, 64 and 128 as sequences 17, 33 and 65 met the old flight's slot", sizes)
	}
	n.Heal(1, 3)
	eng.Run()
	if len(o3.got) != 1 || len(o2.got) != frames || n.InflightARQ() != 0 {
		t.Fatalf("delivered %d to m3 and %d to m2 with %d flights left, want 1/%d/0",
			len(o3.got), len(o2.got), n.InflightARQ(), frames)
	}
	o1.balanced(t, "sender")
	o2.balanced(t, "receiver m2")
	o3.balanced(t, "receiver m3")
}
