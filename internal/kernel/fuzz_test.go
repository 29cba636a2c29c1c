package kernel_test

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
)

// FuzzKernelAdmin injects an arbitrary migration-protocol message into a
// live kernel in the middle of a real migration. Three kernels, one
// stateful process on m1, a migration to m2 requested by m3 and driven
// `point` engine events forward; then (op, body, from) is delivered to
// kernel `target` — through DeliverFrame, so through the one dispatcher —
// once or twice, and the cluster runs to quiescence.
//
// Whatever the message was: no panic, no migration record left pending, no
// envelope leaked or released twice. And unless it was an Abort about the
// migrating pid from its source (see forged below), exactly one live copy of
// the process exists and every forwarding address leads to it.
func FuzzKernelAdmin(f *testing.F) {
	pid := addr.ProcessID{Creator: 1, Local: 1} // the first process m1 spawns
	foreign := addr.ProcessID{Creator: 3, Local: 77}
	// Who legitimately sends each message to whom, in this scenario.
	route := map[msg.Op][2]uint8{ // op -> {target, from}
		msg.OpMigrateRequest: {1, 3}, msg.OpMigrateAsk: {2, 1},
		msg.OpMigrateAccept: {1, 2}, msg.OpMigrateRefuse: {1, 2}, msg.OpMoveDataReq: {1, 2},
		msg.OpMigrateEstablished: {1, 2}, msg.OpMigrateCleanup: {2, 1},
		msg.OpMigrateDone: {3, 1}, msg.OpMigrateAbort: {2, 1},
	}
	// Seed corpus: the nine legal messages, each truncated by one byte, each
	// naming a foreign pid, each replayed twice — before the migration, at
	// three points inside it, and after it — and each sent by the third
	// machine, m3, at points 10 and 14: believed, the Abort from m3 at point
	// 14 discards m2's half as m1 commits to it and leaves no live copy (the
	// Established from m3 at point 10 meets the legal-at column first). Two
	// more are the one input forged exempts: an Abort from m1 itself at
	// points 14 and 15, which leaves no copy either.
	for op, body := range legalBodies(pid) {
		to, from := route[op][0]-1, route[op][1]-1
		code := uint8(op - msg.OpMigrateRequest)
		for _, point := range []uint16{0, 10, 25, 40, 400} {
			f.Add(point, to, code, from, body, false)
			f.Add(point, to, code, from, body[:len(body)-1], false)
			f.Add(point, to, code, from, legalBodies(foreign)[op], false)
			f.Add(point, to, code, from, body, true)
		}
		for _, point := range []uint16{10, 14} {
			f.Add(point, to, code, uint8(2), body, false)
		}
		if op == msg.OpMigrateAbort {
			for _, point := range []uint16{14, 15} {
				f.Add(point, to, code, from, body, false)
			}
		}
	}

	f.Fuzz(func(t *testing.T, point uint16, target, code, from uint8, body []byte, twice bool) {
		c, _ := adminScene(t, int(point%512))
		op := msg.OpMigrateRequest + msg.Op(code%9)
		to, fr := int(target%3)+1, int(from%3)+1
		c.inject(to, fr, op, body)
		if twice {
			c.inject(to, fr, op, body)
		}
		c.run()

		news, free, held := 0, 0, 0
		for m := 1; m <= 3; m++ {
			if n := c.k(m).PendingMigrations(); n != 0 {
				t.Errorf("m%d: %d migration records pending at quiescence", m, n)
			}
			n, fr, h := c.k(m).PoolStats()
			news, free, held = news+n, free+fr, held+h
		}
		if news != free+held {
			t.Errorf("envelope pool: %d constructed, %d free + %d held", news, free, held)
		}
		if forged(pid, op, body, fr) {
			return
		}
		live := c.liveCopies(pid)
		if len(live) != 1 {
			t.Fatalf("live copies on %v, want exactly one", live)
		}
		home := live[0]
		for m := 1; m <= 3; m++ {
			at := m
			for hops := 0; at != home; hops++ {
				info, ok := c.k(at).Process(pid)
				if !ok {
					break // no address here: nothing to converge
				}
				if hops == 3 {
					t.Fatalf("forwarding chain from m%d does not reach m%d", m, home)
				}
				at = int(info.FwdTo)
			}
		}
	})
}

// forged reports whether the injected message is an Abort naming the
// migrating pid from its source, m1. A half believes only its peer (the
// dispatcher's peer rule), and only at a step where the row is legal (the
// protocol table's legal-at column), so every other message must leave
// exactly one copy. An Abort is legal at any step, and a real source sends
// one only after restoring its own copy: a forged one at an established
// destination discards the copy the source then commits to. The destination
// asking the source again does not close this, since the copy is gone
// before it would ask. Nothing the destination holds could tell it from a
// real one: the handoff to its stable storage is written at message 8, after
// an Abort at established has struck, and an attempt id forged by a peer
// that may send anything is believed too. So the exemption stays; whether
// a real late Abort of an earlier attempt exists is a question for the
// schedule explorer. What a kernel does then is still checked for panics,
// stranded records and leaked envelopes, but not for exactly-one
// (DESIGN.md §9 "Honest gaps").
func forged(pid addr.ProcessID, op msg.Op, body []byte, from int) bool {
	got, _, err := addr.DecodePID(body)
	return op == msg.OpMigrateAbort && err == nil && got == pid && from == 1
}
