// Migration under load: a process is migrated while two remote senders
// hammer it with sequence-numbered messages. The §3.1 guarantees under
// test: messages held on the frozen queue and messages absorbed by the
// forwarding address each arrive exactly once, in spite of the move; and
// the §6 ledger attributes the residual forwarding traffic to the
// migration that caused it. The kernels run the default protocol, so the
// senders' links are repaired the way §5 describes: lazily, one update per
// message the forwarding address absorbs, after which sends go direct.
package demosmp_test

import (
	"encoding/binary"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
)

// seqSenderBody sends total sequence-numbered messages over link 1, one
// per scheduling slice: payload = sender id byte + uint32 sequence. Once
// done it blocks, discarding whatever wakes it; raising total and sending
// it any message makes it send again.
type seqSenderBody struct {
	id    byte
	total int
	sent  int
}

func (s *seqSenderBody) Kind() string { return "seq-sender" }
func (s *seqSenderBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if s.sent >= s.total {
		for {
			if _, ok := ctx.Recv(); !ok {
				return 0, proc.Status{State: proc.Blocked}
			}
		}
	}
	var b [5]byte
	b[0] = s.id
	binary.LittleEndian.PutUint32(b[1:], uint32(s.sent))
	if err := ctx.Send(1, b[:]); err != nil {
		return 0, proc.Status{State: proc.Crashed, Err: err}
	}
	s.sent++
	return 1, proc.Status{State: proc.Runnable}
}
func (s *seqSenderBody) Snapshot() ([]byte, error) { return nil, nil }
func (s *seqSenderBody) Restore([]byte) error      { return nil }

// seqSinkBody tallies deliveries by (sender, seq). Snapshot/Restore carry
// the tally across migrations, so duplicates produced anywhere along a
// held/forwarded path would survive the move and be counted.
type seqSinkBody struct {
	seen map[uint64]int
	got  int
}

func (s *seqSinkBody) Kind() string { return "seq-sink" }
func (s *seqSinkBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if len(d.Body) == 5 {
			key := uint64(d.Body[0])<<32 | uint64(binary.LittleEndian.Uint32(d.Body[1:]))
			if s.seen == nil {
				s.seen = make(map[uint64]int)
			}
			s.seen[key]++
			s.got++
		}
	}
}

func (s *seqSinkBody) Snapshot() ([]byte, error) {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(s.seen)))
	for k, v := range s.seen {
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b, nil
}

func (s *seqSinkBody) Restore(b []byte) error {
	if len(b) < 4 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	s.seen = make(map[uint64]int, n)
	s.got = 0
	for i := 0; i < n && len(b) >= 12; i++ {
		k := binary.LittleEndian.Uint64(b)
		v := int(binary.LittleEndian.Uint32(b[8:]))
		s.seen[k] = v
		s.got += v
		b = b[12:]
	}
	return nil
}

// TestMigrationUnderLoadExactlyOnce migrates the sink m1→m2 while senders
// on m2 and m3 are mid-stream, then checks every message arrived exactly
// once and the §6 ledger pinned the residual forwards on the migration.
func TestMigrationUnderLoadExactlyOnce(t *testing.T) {
	const perSender = 60

	e := sim.NewEngine(1)
	nw := netw.New(e, netw.Config{})
	reg := proc.NewRegistry()
	reg.Register("seq-sink", func() proc.Body { return &seqSinkBody{} })
	reg.Register("seq-sender", func() proc.Body { return &seqSenderBody{} })
	oreg, oled := obs.NewRegistry(), obs.NewLedger()
	ks := make([]*kernel.Kernel, 3)
	for i := range ks {
		ks[i] = kernel.New(addr.MachineID(i+1), e, nw, kernel.Config{Registry: reg})
		ks[i].SetObs(oreg, oled)
	}

	sink := &seqSinkBody{}
	sinkPID, err := ks[0].Spawn(kernel.SpawnSpec{Body: sink})
	if err != nil {
		t.Fatal(err)
	}
	senders := make([]*seqSenderBody, 2)
	spids := make([]addr.ProcessID, 2)
	for i, m := range []int{1, 2} { // senders on m2 and m3
		sender := &seqSenderBody{id: byte(i + 1), total: perSender}
		spid, err := ks[m].Spawn(kernel.SpawnSpec{Body: sender})
		if err != nil {
			t.Fatal(err)
		}
		senders[i], spids[i] = sender, spid
		if _, err := ks[m].MintLinkTo(link.Link{Addr: addr.At(sinkPID, 1)}, spid); err != nil {
			t.Fatal(err)
		}
	}

	// Let the streams start flowing, then migrate the sink mid-hammer.
	cur := sink
	for cur.got < perSender/4 {
		if !e.Step() {
			t.Fatal("engine idle before migration point")
		}
	}
	ks[0].RequestMigrationOf(addr.At(sinkPID, 1), 2)
	for e.Step() {
	}

	// A third sender starts only after the move: its sends carry the stale
	// address and must be absorbed by the forwarding address, exactly
	// once, with the lazy §5 machinery attributing them to the migration.
	staleFrom := addr.At(addr.ProcessID{Creator: 3, Local: 77}, 3)
	for seq := 0; seq < perSender; seq++ {
		var p [5]byte
		p[0] = 3
		binary.LittleEndian.PutUint32(p[1:], uint32(seq))
		ks[2].GiveMessageTo(addr.At(sinkPID, 1), staleFrom, p[:])
	}
	for e.Step() {
	}

	// The real senders finished inside the freeze window, so every one of
	// their messages was held and forwarded at step 6 and their links are
	// still stale. One more send each goes through the forwarding address,
	// and the §5 update it triggers is applied and fixes the sender's link.
	sendOneMore := func() {
		for i, m := range []int{1, 2} {
			senders[i].total++
			if err := ks[m].GiveMessage(spids[i], addr.ProcessAddr{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		for e.Step() {
		}
	}
	before := ks[0].Stats()
	sendOneMore()
	after := ks[0].Stats()
	if d := after.Forwarded - before.Forwarded; d != 2 {
		t.Errorf("stale real senders cost %d forwards, want 1 each", d)
	}
	if d := after.LinkUpdatesSent - before.LinkUpdatesSent; d != 2 {
		t.Errorf("forwarding address sent %d link updates, want 1 per stale real sender", d)
	}
	for _, k := range ks[1:] {
		if st := k.Stats(); st.LinkUpdatesApplied != 1 || st.LinksFixed != 1 {
			t.Errorf("m%d applied %d link updates fixing %d links, want 1 and 1",
				k.Machine(), st.LinkUpdatesApplied, st.LinksFixed)
		}
	}
	// Converged: a further send from each real sender goes direct.
	sendOneMore()
	if d := ks[0].Stats().Forwarded - after.Forwarded; d != 0 {
		t.Errorf("after the link update, real senders still cost %d forwards", d)
	}

	// The sink must have arrived on m2 with every message exactly once.
	bod, ok := ks[1].BodyOf(sinkPID)
	if !ok {
		t.Fatal("sink did not arrive on m2")
	}
	moved := bod.(*seqSinkBody)
	sent := []int{perSender + 2, perSender + 2, perSender}
	if want := sent[0] + sent[1] + sent[2]; moved.got != want {
		t.Fatalf("sink received %d messages, want %d", moved.got, want)
	}
	for i, n := range sent {
		for seq := 0; seq < n; seq++ {
			key := uint64(i+1)<<32 | uint64(seq)
			if c := moved.seen[key]; c != 1 {
				t.Errorf("sender %d seq %d delivered %d times, want exactly once", i+1, seq, c)
			}
		}
	}

	// The migration must actually have been under load: messages were held
	// on the frozen queue and forwarded at step 6, and stale sends after
	// step 7 were absorbed by the forwarding address.
	src := ks[0].Stats()
	if src.ForwardedPending == 0 {
		t.Error("no messages were held+forwarded at step 6; load did not overlap the freeze")
	}
	if src.Forwarded == 0 {
		t.Error("no stale sends hit the forwarding address after step 7")
	}

	// §6 ledger attribution: one record, with the step-6 queue drain and
	// the post-completion forwards pinned on this migration.
	recs := oled.Records()
	if len(recs) != 1 {
		t.Fatalf("ledger has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.OK || rec.PID != sinkPID || rec.From != 1 || rec.To != 2 {
		t.Fatalf("ledger record = %+v, want OK migration of %v 1->2", rec, sinkPID)
	}
	if rec.PendingForwarded != int(src.ForwardedPending) {
		t.Errorf("ledger PendingForwarded = %d, stats say %d", rec.PendingForwarded, src.ForwardedPending)
	}
	if rec.ForwardsAbsorbed != src.Forwarded {
		t.Errorf("ledger ForwardsAbsorbed = %d, source forwarded %d", rec.ForwardsAbsorbed, src.Forwarded)
	}
	if rec.MoveDataTransfers != 3 {
		t.Errorf("MoveDataTransfers = %d, want 3 (§6)", rec.MoveDataTransfers)
	}
}

// BenchmarkKernelMigrationUnderLoad is one full migration with concurrent
// traffic: before each migration, two stale senders fire a burst at the
// process's old address, so every op pays for held-queue forwarding and
// the forwarding address with its lazy link updates on top of the 8-step
// protocol.
func BenchmarkKernelMigrationUnderLoad(b *testing.B) {
	const burst = 8 // messages per sender per op

	e := sim.NewEngine(1)
	nw := netw.New(e, netw.Config{})
	reg := proc.NewRegistry()
	// The non-tallying sink keeps the swappable state constant-size, so
	// every op moves the same number of bytes (exactly-once is asserted by
	// TestMigrationUnderLoadExactlyOnce, not here).
	reg.Register("bench-sink", func() proc.Body { return &benchSinkBody{} })
	done := 0
	mk := func(m addr.MachineID) *kernel.Kernel {
		return kernel.New(m, e, nw, kernel.Config{
			Registry: reg,
			OnReport: func(r kernel.MigrationReport) {
				if r.OK {
					done++
				}
			},
		})
	}
	ks := []*kernel.Kernel{mk(1), mk(2), mk(3)}
	pid, err := ks[0].Spawn(kernel.SpawnSpec{Body: &benchSinkBody{}})
	if err != nil {
		b.Fatal(err)
	}
	from1 := addr.At(addr.ProcessID{Creator: 3, Local: 98}, 3)
	from2 := addr.At(addr.ProcessID{Creator: 3, Local: 99}, 3)
	var seq uint32
	cur := 0
	migrate := func() {
		// Two senders hammer the old address as the migration starts.
		for i := 0; i < burst; i++ {
			var p1, p2 [5]byte
			p1[0], p2[0] = 1, 2
			binary.LittleEndian.PutUint32(p1[1:], seq)
			binary.LittleEndian.PutUint32(p2[1:], seq)
			seq++
			ks[2].GiveMessageTo(addr.At(pid, addr.MachineID(cur+1)), from1, p1[:])
			ks[2].GiveMessageTo(addr.At(pid, addr.MachineID(cur+1)), from2, p2[:])
		}
		dst := 1 - cur
		ks[cur].RequestMigrationOf(addr.At(pid, ks[cur].Machine()), ks[dst].Machine())
		target := done + 1
		for done < target {
			if !e.Step() {
				b.Fatal("engine idle mid-migration")
			}
		}
		for e.Step() {
		}
		cur = dst
	}
	migrate() // warm pools on both sides
	migrate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		migrate()
	}
	b.StopTimer()
	if _, ok := ks[cur].BodyOf(pid); !ok {
		b.Fatal("sink lost")
	}
}
