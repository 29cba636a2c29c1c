package netw

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// TestDedupStateBounded drives sustained loss through a pair in both
// directions and asserts (a) reliability still holds with no duplicate
// deliveries and (b) the receiver-side dedup state is a fixed, small number of
// bytes per pair: a high-water mark and a bit window, nothing that grows with
// traffic. (The first implementation pruned only past 4096 entries per pair;
// the second held a 1024-id ring and a map, 46.5 KB per pair.)
func TestDedupStateBounded(t *testing.T) {
	eng := sim.NewEngine(5)
	n := New(eng, Config{
		LossRate:       0.3,
		RetransTimeout: 2000,
		MaxRetries:     200,
		PerByteNanos:   1,
	})
	r1 := &recorder{eng: eng}
	r2 := &recorder{eng: eng}
	n.Attach(1, r1)
	n.Attach(2, r2)

	const frames = 3 * 1024
	from := addr.At(addr.ProcessID{Creator: 1, Local: 1}, 1)
	to := addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2)
	for i := 0; i < frames; i++ {
		n.Send(1, 2, &msg.Message{Kind: msg.KindUser, From: from, To: to})
		// Alternate direction so two pairs accumulate state.
		n.Send(2, 1, &msg.Message{Kind: msg.KindUser, From: to, To: from})
		eng.Run()
	}

	if len(r2.got) != frames || len(r1.got) != frames {
		t.Fatalf("reliability violated: delivered %d/%d and %d/%d",
			len(r2.got), frames, len(r1.got), frames)
	}
	for _, p := range []pair{{1, 2}, {2, 1}} {
		if d := n.delivered[p]; d == nil || d.hi != frames {
			t.Fatalf("dedup state for %v->%v is %+v, want a window with hi = %d", p.from, p.to, d, frames)
		}
	}
	if n.dedupPairs() != 2 {
		t.Fatalf("dedup state held for %d pairs, want 2", n.dedupPairs())
	}
	// The whole per-pair state is this one pointer-free struct.
	if sz := unsafe.Sizeof(dedup{}); sz > dedupSpan/8+64 {
		t.Fatalf("dedup state is %d bytes per pair, want <= %d (one bit per sequence in the window)", sz, dedupSpan/8+64)
	}
}

// TestDedupMatchesReferenceSet feeds one pair's window and an exact reference
// set the same seeded stream of arrivals — a sparse share of the sender's
// sequence space, each frame arriving one to four times (first attempt,
// retransmissions, injected duplicates), reordered by up to a few hundred
// sequences, over more than three windows of traffic — and demands identical
// verdicts while the lag behind the highest delivered sequence stays inside
// the window. Then the documented aged-out rule: a copy that trails the
// high-water mark by dedupSpan or more is delivered again, whatever the set
// says, and leaves the window's view of in-range sequences untouched.
func TestDedupMatchesReferenceSet(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type arrival struct {
		seq     uint64
		attempt int
		at      int
	}
	var stream []arrival
	seq := uint64(0)
	for seq < 3*dedupSpan+1000 {
		seq += 1 + uint64(r.Intn(6)) // the sender's other receivers take the gaps
		copies := 1
		for copies < 4 && r.Intn(4) == 0 {
			copies++
		}
		for a := 0; a < copies; a++ {
			if a == 0 && r.Intn(20) == 0 {
				continue // first attempt lost: a later copy is the first to arrive
			}
			stream = append(stream, arrival{seq, a, int(seq) + a*r.Intn(400) + r.Intn(40)})
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].at < stream[j].at })

	var d dedup
	ref := make(map[uint64]bool)
	dups, reordered := 0, 0
	for i, a := range stream {
		if d.hi >= a.seq && d.hi-a.seq >= dedupSpan-63 {
			t.Fatalf("arrival %d: seq %d lags hi %d by a window — the stream is meant to stay inside it", i, a.seq, d.hi)
		}
		if a.seq < d.hi && !ref[a.seq] {
			reordered++
		}
		fresh := d.admit(a.seq)
		if fresh == ref[a.seq] {
			t.Fatalf("arrival %d (seq %d attempt %d, hi %d): window says new=%v, reference set says seen=%v",
				i, a.seq, a.attempt, d.hi, fresh, ref[a.seq])
		}
		if !fresh {
			dups++
		}
		ref[a.seq] = true
	}
	if dups < 1000 || reordered < 1000 {
		t.Fatalf("stream exercised %d duplicates and %d late first arrivals, want >= 1000 of each", dups, reordered)
	}

	// Aged out: everything a window or more behind is unseen again.
	for _, old := range []uint64{1, d.hi - dedupSpan, d.hi - 2*dedupSpan} {
		for k := 0; k < 2; k++ {
			if !d.admit(old) {
				t.Fatalf("seq %d trails hi %d by >= dedupSpan: want it treated as unseen (delivery %d)", old, d.hi, k+1)
			}
		}
	}
	// ...and the in-range verdicts are what they were.
	for s := d.hi - dedupSpan + 64; s <= d.hi; s++ {
		if d.admit(s) == ref[s] {
			t.Fatalf("after aged-out arrivals, seq %d (hi %d): window says new=%v, reference set says seen=%v", s, d.hi, !ref[s], ref[s])
		}
		ref[s] = true
	}
	// A jump of more than a window forgets everything below it.
	hi := d.hi
	if !d.admit(hi+2*dedupSpan) || d.admit(hi+2*dedupSpan) || !d.admit(hi) {
		t.Fatal("a jump past the window must admit the new sequence once and age out the old high-water mark")
	}
}

// TestDedupSuppressesRetransmitDuplicates keeps the receiver-side guarantee
// concrete: under loss, retransmissions arrive but each unique frame is
// delivered exactly once, with the surplus counted as duplicates.
func TestDedupSuppressesRetransmitDuplicates(t *testing.T) {
	eng := sim.NewEngine(11)
	n := New(eng, Config{
		LossRate:       0.4,
		RetransTimeout: 1500,
		MaxRetries:     300,
		PerByteNanos:   1,
	})
	r1 := &recorder{eng: eng}
	r2 := &recorder{eng: eng}
	n.Attach(1, r1)
	n.Attach(2, r2)

	const frames = 500
	from := addr.At(addr.ProcessID{Creator: 1, Local: 1}, 1)
	to := addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2)
	for i := 0; i < frames; i++ {
		n.Send(1, 2, &msg.Message{Kind: msg.KindUser, From: from, To: to})
	}
	eng.Run()

	if len(r2.got) != frames {
		t.Fatalf("delivered %d frames, want exactly %d", len(r2.got), frames)
	}
	s := n.Stats()
	if s.Retransmits == 0 {
		t.Fatal("expected retransmissions under 40% loss")
	}
	if s.Duplicates == 0 {
		t.Fatal("expected suppressed duplicates under lossy acks")
	}
}

// TestDedupMemoryBoundedOnLargeTopology pins the O(active pairs) memory
// claim on a 1000-machine topology: after a burst touches ~1000 distinct
// pairs once and traffic then concentrates on a single pair, the amortized
// idle sweep must evict the cold pairs' dedup state into the free pool —
// per-pair state is proportional to pairs active within the retention
// window, not to every pair that ever communicated.
func TestDedupMemoryBoundedOnLargeTopology(t *testing.T) {
	eng := sim.NewEngine(3)
	n := New(eng, Config{
		LossRate:       0.1,
		RetransTimeout: 500,
		MaxRetries:     4, // retention = 2*500*4 = 4000µs
		PerByteNanos:   1,
	})
	const machines = 1000
	recs := make([]*recorder, machines+1)
	for m := 1; m <= machines; m++ {
		recs[m] = &recorder{eng: eng}
		n.Attach(addr.MachineID(m), recs[m])
	}

	// Burst: every adjacent pair exchanges one frame, creating dedup state
	// for ~999 distinct pairs.
	for i := 1; i < machines; i++ {
		from := addr.At(addr.ProcessID{Creator: 1, Local: addr.LocalUID(i)}, addr.MachineID(i))
		to := addr.At(addr.ProcessID{Creator: 1, Local: addr.LocalUID(i + 1)}, addr.MachineID(i+1))
		n.Send(addr.MachineID(i), addr.MachineID(i+1), &msg.Message{Kind: msg.KindUser, From: from, To: to})
	}
	eng.Run()
	burst := n.dedupPairs()
	if burst < machines/2 {
		t.Fatalf("burst created dedup state for only %d pairs", burst)
	}

	// Steady state: one hot pair. Each send's ARQ activity advances the
	// clock past the retransmit window, so the run covers dozens of
	// retention horizons while arrivals keep crossing sweep thresholds.
	from := addr.At(addr.ProcessID{Creator: 1, Local: 1}, 1)
	to := addr.At(addr.ProcessID{Creator: 1, Local: 2}, 2)
	for i := 0; i < 400; i++ {
		n.Send(1, 2, &msg.Message{Kind: msg.KindUser, From: from, To: to})
		eng.Run()
	}

	if got := n.dedupPairs(); got > 8 {
		t.Fatalf("dedup state held for %d pairs after idling (burst peak %d), want <= 8 (O(active pairs))", got, burst)
	}
	if pooled := n.dedupPooled(); pooled < 900 {
		t.Fatalf("only %d evicted dedup states were pooled for reuse, want >= 900", pooled)
	}
	if len(recs[2].got) < 400 {
		t.Fatalf("hot pair delivered %d/400 frames — eviction must not cost reliability", len(recs[2].got))
	}
}
