package kernel_test

// The protocol table (migrate.go) is the one list of migration ops. These
// tests pin its shape, check it against what a migration actually sends,
// drive every row's orphan rule, and keep docs/PROTOCOLS.md quoting it.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/msg"
)

var updateProtocolDoc = flag.Bool("update-protocol-doc", false,
	"rewrite the protocol table block of docs/PROTOCOLS.md")

// legalBodies builds one well-formed payload per migration op, naming pid.
func legalBodies(pid addr.ProcessID) map[msg.Op][]byte {
	pm := msg.PIDMachine{PID: pid, Machine: 2}.Encode()
	return map[msg.Op][]byte{
		msg.OpMigrateRequest:     msg.MigrateRequest{PID: pid, Dest: 2}.Encode(),
		msg.OpMigrateAsk:         msg.MigrateAsk{PID: pid, Program: 1, Resident: 1, Swappable: 1}.Encode(),
		msg.OpMigrateAccept:      pm,
		msg.OpMigrateRefuse:      pm,
		msg.OpMoveDataReq:        msg.MoveDataReq{PID: pid, Region: msg.RegionResident, Xfer: 1}.Encode(),
		msg.OpMigrateEstablished: pm,
		msg.OpMigrateCleanup:     msg.MigrateCleanup{PID: pid}.Encode(),
		msg.OpMigrateDone:        msg.MigrateDone{PID: pid, Machine: 2, OK: true}.Encode(),
		msg.OpMigrateAbort:       pm,
	}
}

// inject delivers a control message to kernel `to` as a frame from kernel
// `from` — the path every administrative message takes into the dispatcher.
func (c *tc) inject(to, from int, op msg.Op, body []byte) {
	c.k(to).DeliverFrame(&msg.Message{Kind: msg.KindControl, Op: op, Body: body,
		From: addr.KernelAddr(addr.MachineID(from)), To: addr.KernelAddr(addr.MachineID(to))})
}

func TestProtocolTable(t *testing.T) {
	rows := kernel.ProtocolTable()

	// One row per op from OpMigrateRequest through OpMigrateAbort, in op
	// order, and no other op reaches the dispatcher.
	if want := int(msg.OpMigrateAbort-msg.OpMigrateRequest) + 1; len(rows) != want {
		t.Fatalf("table has %d rows, want %d", len(rows), want)
	}
	inTable := map[msg.Op]bool{}
	for i, r := range rows {
		if want := msg.OpMigrateRequest + msg.Op(i); r.Op != want {
			t.Errorf("row %d is %v, want %v", i, r.Op, want)
		}
		inTable[r.Op] = true
	}
	for op := 0; op < 256; op++ {
		if got := kernel.IsMigrationOp(msg.Op(op)); got != inTable[msg.Op(op)] {
			t.Errorf("%v: dispatched as a migration op = %v, in the table = %v", msg.Op(op), got, inTable[msg.Op(op)])
		}
	}

	// The payload column is the encoders' size, inside the paper's 6-12 B.
	for op, body := range legalBodies(addr.ProcessID{Creator: 1, Local: 1}) {
		r := rows[op-msg.OpMigrateRequest]
		if r.Bytes != len(body) || r.Bytes < 6 || r.Bytes > 12 {
			t.Errorf("%v: table says %d B, the encoder writes %d B (paper: 6-12)", op, r.Bytes, len(body))
		}
	}

	// Every kill-point sits on exactly one row, or on the data path between
	// rows (the two the destination passes as region streams complete).
	seen := map[kernel.KillPoint]int{kernel.KPDestMidTransfer: 1, kernel.KPDestTransferred: 1}
	for _, r := range rows {
		for _, kp := range r.Kills {
			seen[kp]++
		}
	}
	for _, kp := range kernel.KillPoints() {
		if seen[kp] != 1 {
			t.Errorf("kill-point %v is on %d rows, want 1", kp, seen[kp])
		}
	}

	// After a migration and a forwarded message — the §6 conformance run —
	// the administrative messages sent are the table's, nine of them.
	c := newTC(t, 3, nil)
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		t.Fatal(err)
	}
	c.runFor(2_000)
	c.migrate(3, pid, 1, 2)
	c.run()
	c.k(3).GiveMessageTo(addr.At(pid, 1), addr.KernelAddr(3), []byte("hit"))
	c.run()
	var total uint64
	for m := 1; m <= 3; m++ {
		for op, n := range c.k(m).Stats().AdminSent {
			if n != 0 && !inTable[msg.Op(op)] {
				t.Errorf("m%d sent %d administrative %v messages: not a table op", m, n, msg.Op(op))
			}
			total += n
		}
	}
	if total != 9 {
		t.Errorf("%d administrative messages, want 9", total)
	}
	if rep := c.k(1).Reports(); len(rep) != 1 || rep[0].AdminMsgs != 9 {
		t.Errorf("source report: %+v, want one migration billing 9 messages", rep)
	}

	// Orphan rules. m3 holds no half of any migration, and pid is nowhere
	// near it: of the ops addressed to a half, only Established has a rule,
	// and m3, holding no record of the pid, answers it with a Cleanup;
	// everything else is ignored. (The rule's Abort answer is
	// TestSourceCrashAfterTransferLeavesOneCopy's and the explorer's; stale
	// aborts are TestDuplicateAndStaleAbortsAreNoOps.)
	hasRule := map[msg.Op]bool{msg.OpMigrateEstablished: true}
	for _, r := range rows {
		if r.Role == "—" {
			continue
		}
		if (r.Orphan != "ignored") != hasRule[r.Op] {
			t.Errorf("%v: orphan column %q, want a rule = %v", r.Op, r.Orphan, hasRule[r.Op])
		}
		before := c.k(3).Stats()
		c.inject(3, 2, r.Op, legalBodies(pid)[r.Op])
		c.run()
		after := c.k(3).Stats()
		var wantCleanups uint64
		if r.Op == msg.OpMigrateEstablished {
			wantCleanups = 1
		}
		if after.AdminSent[msg.OpMigrateCleanup]-before.AdminSent[msg.OpMigrateCleanup] != wantCleanups ||
			after.AdminTotal()-before.AdminTotal() != wantCleanups ||
			after.MigrationsFailed != before.MigrationsFailed || c.k(3).PendingMigrations() != 0 {
			t.Errorf("%v at a kernel with no such half: sent %d messages (%d cleanups), want %d; failed %d, pending %d",
				r.Op, after.AdminTotal()-before.AdminTotal(),
				after.AdminSent[msg.OpMigrateCleanup]-before.AdminSent[msg.OpMigrateCleanup], wantCleanups,
				after.MigrationsFailed-before.MigrationsFailed, c.k(3).PendingMigrations())
		}
	}
	// The Cleanup the late Established drew reached m2's committed copy,
	// which holds no half, and was ignored there.
	if info, ok := c.k(2).Process(pid); !ok || info.State == kernel.StateForwarder {
		t.Error("the orphan rule's cleanup destroyed a cleanly migrated copy")
	}
}

// TestEstablishedOrphanRule: a source that holds no half answers an
// Established from m2 from what it holds. A forwarding address to m2 or no
// record of the pid at all: message 8 again. A live copy, an exit record or
// a forwarding address elsewhere: an Abort. Either way exactly one message.
func TestEstablishedOrphanRule(t *testing.T) {
	for _, tt := range []struct {
		name  string
		setup func(c *tc) addr.ProcessID
		want  msg.Op
	}{
		{"forwarder to the sender", func(c *tc) addr.ProcessID { return moved(c, 2) }, msg.OpMigrateCleanup},
		{"no record", func(*tc) addr.ProcessID { return addr.ProcessID{Creator: 3, Local: 77} }, msg.OpMigrateCleanup},
		{"live copy", func(c *tc) addr.ProcessID { return moved(c, 1) }, msg.OpMigrateAbort},
		{"exit record", func(c *tc) addr.ProcessID {
			pid := moved(c, 1)
			if err := c.k(1).GiveMessage(pid, addr.KernelAddr(3), []byte("die")); err != nil {
				t.Fatal(err)
			}
			c.run()
			if _, ok := c.k(1).Exit(pid); !ok {
				t.Fatal("the counter did not exit")
			}
			return pid
		}, msg.OpMigrateAbort},
		{"forwarder elsewhere", func(c *tc) addr.ProcessID { return moved(c, 3) }, msg.OpMigrateAbort},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c := newTC(t, 3, nil)
			pid := tt.setup(c)
			before := c.k(1).Stats()
			c.inject(1, 2, msg.OpMigrateEstablished, legalBodies(pid)[msg.OpMigrateEstablished])
			c.run()
			after := c.k(1).Stats()
			if after.AdminSent[tt.want]-before.AdminSent[tt.want] != 1 || after.AdminTotal()-before.AdminTotal() != 1 {
				t.Errorf("m1 sent %d administrative messages (%d %v), want exactly one %v",
					after.AdminTotal()-before.AdminTotal(), after.AdminSent[tt.want]-before.AdminSent[tt.want], tt.want, tt.want)
			}
		})
	}
}

// moved spawns a counter on m1 and migrates it to dest (1: it stays).
func moved(c *tc, dest int) addr.ProcessID {
	c.t.Helper()
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		c.t.Fatal(err)
	}
	c.runFor(2_000)
	if dest != 1 {
		c.migrate(3, pid, 1, dest)
		c.run()
	}
	return pid
}

// renderProtocolTable prints the table the way docs/PROTOCOLS.md quotes it.
func renderProtocolTable() string {
	var b strings.Builder
	b.WriteString("| № | op | direction | payload | receiving half | legal at | no such half here | §3.1 step | kill-points |\n")
	b.WriteString("|---|----|-----------|---------|----------------|----------|-------------------|-----------|-------------|\n")
	for _, r := range kernel.ProtocolTable() {
		kills := "—"
		if len(r.Kills) > 0 {
			var names []string
			for _, kp := range r.Kills {
				names = append(names, "`"+kp.String()+"`")
			}
			kills = strings.Join(names, ", ")
		}
		fmt.Fprintf(&b, "| %s | `%v` | %s | %d B | %s | %s | %s | %s | %s |\n",
			r.Num, r.Op, r.Dir, r.Bytes, r.Role, r.LegalAt, r.Orphan, r.Steps, kills)
	}
	return b.String()
}

// TestProtocolTableDoc: the table in docs/PROTOCOLS.md is the Go table,
// rendered. Rewrite the block after changing a row with
//
//	go test ./internal/kernel -run TestProtocolTableDoc -update-protocol-doc
func TestProtocolTableDoc(t *testing.T) {
	const path = "../../docs/PROTOCOLS.md"
	const begin, end = "<!-- protocol-table:begin -->\n", "<!-- protocol-table:end -->"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(doc, []byte(begin))
	j := bytes.Index(doc, []byte(end))
	if i < 0 || j < i {
		t.Fatalf("%s has no %q ... %q block", path, strings.TrimSpace(begin), end)
	}
	i += len(begin)
	want := renderProtocolTable()
	if *updateProtocolDoc {
		out := append(append(append([]byte(nil), doc[:i]...), want...), doc[j:]...)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := string(doc[i:j]); got != want {
		t.Errorf("%s drifted from the protocol table (rewrite with -update-protocol-doc)\n--- doc ---\n%s--- table ---\n%s",
			path, got, want)
	}
}

// TestAbortedMigrateBackKeepsForwarder: a process migrates back to a
// machine that holds its own forwarding address, and that migration aborts
// after step 3 displaced the address. The address must be back exactly as
// it was, and the messages the incoming record held must be forwarded
// through it — not dropped with the record.
func TestAbortedMigrateBackKeepsForwarder(t *testing.T) {
	c := newTCNet(t, 3, arqCfg(), // frames to a severed peer wait for the heal
		func(cfg *kernel.Config) { cfg.MigrateTimeout = 200_000 })
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}, ImageSize: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c.runFor(2_000)
	c.migrate(3, pid, 1, 2)
	c.run()
	fwdBytes := c.k(1).Stats().ForwarderBytes
	if info, ok := c.k(1).Process(pid); !ok || info.State != kernel.StateForwarder || info.FwdTo != 2 {
		t.Fatalf("after m1->m2, m1 holds %+v, want a forwarder to m2", info)
	}

	// Back to m1; the pair is severed while the program region streams.
	c.migrate(3, pid, 2, 1)
	c.runFor(20_000)
	if info, ok := c.k(1).Process(pid); !ok || info.State != kernel.StateIncoming {
		t.Fatalf("20 ms into m2->m1, m1 holds %+v, want the incoming record", info)
	}
	c.net.Partition(1, 2)
	// A stale send reaches m1 during the window and is held on the
	// incoming record.
	c.k(3).GiveMessageTo(addr.At(pid, 1), addr.KernelAddr(3), []byte("hit"))
	c.runFor(400_000) // both watchdogs fire
	c.net.Heal(1, 2)
	c.run()

	if info, ok := c.k(2).Process(pid); !ok || info.State == kernel.StateForwarder {
		t.Fatal("the process was not restored on m2")
	}
	info, ok := c.k(1).Process(pid)
	if !ok || info.State != kernel.StateForwarder || info.FwdTo != 2 {
		t.Fatalf("after the aborted migrate-back, m1 holds %+v (present=%v), want its forwarder to m2 back", info, ok)
	}
	if got := c.k(1).Stats().ForwarderBytes; got != fwdBytes {
		t.Errorf("m1 ForwarderBytes = %d, want %d as before the attempt", got, fwdBytes)
	}
	if c.k(1).PendingMigrations()+c.k(2).PendingMigrations() != 0 {
		t.Error("a migration half is still pending")
	}

	// A second stale send, after the heal, takes the reinstated address.
	c.k(3).GiveMessageTo(addr.At(pid, 1), addr.KernelAddr(3), []byte("hit"))
	c.run()
	b, _ := c.k(2).BodyOf(pid)
	if got := b.(*counterBody).Count; got != 2 {
		s := c.k(1).Stats()
		t.Fatalf("server on m2 counted %d of 2 stale sends (m1: held %d, forwarded %d, dead letters %d)",
			got, s.MsgsHeld, s.Forwarded, s.DeadLetters)
	}
	if s := c.k(1).Stats(); s.DeadLetters != 0 {
		t.Errorf("m1 dead-lettered %d messages", s.DeadLetters)
	}
}

// TestLongRegionOutlastsMigrateTimeout: a region that takes longer than
// MigrateTimeout to stream is not a silent peer. Data packets move the
// destination's deadline and the source allows for the stream it paced out,
// so a 256 KiB image migrates over a healthy link with a 200 ms timeout.
func TestLongRegionOutlastsMigrateTimeout(t *testing.T) {
	c := newTC(t, 3, func(cfg *kernel.Config) { cfg.MigrateTimeout = 200_000 })
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}, ImageSize: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c.runFor(2_000)
	c.migrate(3, pid, 1, 2)
	c.run()
	if took := c.eng.Now(); took < 2*200_000 {
		t.Fatalf("the migration ended after %v: the image does not outlast the timeout, the test proves nothing", took)
	}
	for m := 1; m <= 2; m++ {
		if s := c.k(m).Stats(); s.MigrationsFailed != 0 {
			t.Errorf("m%d: %d failed migrations on a healthy link", m, s.MigrationsFailed)
		}
	}
	if done, n := c.k(3).DoneMigrations(); n != 1 || !done.OK {
		t.Fatalf("requester saw %d completions, last %+v, want one OK", n, done)
	}
	if err := c.k(2).GiveMessage(pid, addr.KernelAddr(3), []byte("hit")); err != nil {
		t.Fatal(err)
	}
	_ = c.k(2).GiveMessage(pid, addr.KernelAddr(3), []byte("die"))
	c.run()
	if e, m := c.exitOf(pid); m != 2 || e.Code != 1 {
		t.Fatalf("exited on m%d with %d, want m2 with 1", m, e.Code)
	}
}

// TestDuplicateAdminMessagesAreDropped: a lossless network that delivers an
// administrative message twice must not change the migration. A second Ask
// finds the destination half already open with the same source, and a
// second MoveDataReq names a region the source has already streamed: each
// is dropped and counted AdminRejected, and the migration completes with
// §6's bill of 3 transfers and 9 administrative messages.
func TestDuplicateAdminMessagesAreDropped(t *testing.T) {
	for _, dup := range []string{"ask", "move-data-req"} {
		t.Run(dup, func(t *testing.T) {
			c := newTC(t, 3, nil)
			pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
			if err != nil {
				t.Fatal(err)
			}
			c.runFor(2_000)
			if dup == "ask" {
				c.net.DuplicateNext(1, 2, 1) // m1's next frame to m2 is the Ask
			}
			c.migrate(3, pid, 1, 2)
			if dup == "move-data-req" {
				// The Ask opens m2's half, which sends the Accept and the
				// resident region's request in the same step. m2's next two
				// frames to m1 go out together when the resident region
				// lands: its packet's ack, and the swappable region's request.
				for info, ok := c.k(2).Process(pid); !ok || info.State != kernel.StateIncoming; info, ok = c.k(2).Process(pid) {
					if !c.eng.Step() {
						t.Fatal("engine idle before m2 opened its half")
					}
				}
				c.net.DuplicateNext(2, 1, 2)
			}
			c.run()
			if done, n := c.k(3).DoneMigrations(); n != 1 || !done.OK {
				t.Fatalf("requester saw %d completions, last %+v, want one OK", n, done)
			}
			rep := c.k(1).Reports()
			if len(rep) != 1 || rep[0].MoveDataTransfers != 3 || rep[0].AdminMsgs != 9 {
				t.Fatalf("source report %+v, want one migration with 3 transfers and 9 admin messages", rep)
			}
			var rejected uint64
			for m := 1; m <= 3; m++ {
				rejected += c.k(m).Stats().AdminRejected
			}
			if rejected != 1 {
				t.Fatalf("AdminRejected = %d, want 1", rejected)
			}
		})
	}
}

// TestHeldRequestServedAfterArrival: two requests to migrate one pid to m2,
// 1 µs apart. The first opens the migration; the second reaches the source
// while the pid is in migration, is held on its queue, forwarded at step 6
// and held again on the incoming record. Step 8 restarts the process before
// it serves what was held, so m2 finds the pid already where it is asked to
// go and answers OK; no kernel counts a refusal.
func TestHeldRequestServedAfterArrival(t *testing.T) {
	c := newTC(t, 3, nil)
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		t.Fatal(err)
	}
	c.runFor(2_000)
	c.migrate(3, pid, 1, 2)
	c.runFor(1)
	c.migrate(3, pid, 1, 2)
	for _, n := c.k(3).DoneMigrations(); n == 0; _, n = c.k(3).DoneMigrations() {
		if !c.eng.Step() {
			t.Fatal("engine idle before the first completion")
		}
	}
	if done, _ := c.k(3).DoneMigrations(); !done.OK {
		t.Fatalf("first completion %+v, want OK", done)
	}
	c.run()
	if rep := c.k(1).Reports(); len(rep) != 1 || !rep[0].OK {
		t.Fatalf("source reports %+v, want one completed migration", rep)
	}
	if at := c.liveCopies(pid); len(at) != 1 || at[0] != 2 {
		t.Fatalf("live copies on %v, want one on m2", at)
	}
	if done, n := c.k(3).DoneMigrations(); n != 2 || !done.OK || done.Machine != 2 {
		t.Fatalf("requester saw %d completions, last %+v, want a second OK, from m2", n, done)
	}
	for m := 1; m <= 3; m++ {
		if got := c.k(m).Stats().MigrationsRefused; got != 0 {
			t.Errorf("m%d MigrationsRefused = %d, want 0", m, got)
		}
	}
}

// adminScene is FuzzKernelAdmin's scene: three lossless kernels, a stateful
// process spawned on m1, and its migration to m2 requested by m3, driven
// point engine events forward.
func adminScene(t *testing.T, point int) (*tc, addr.ProcessID) {
	c := newTC(t, 3, nil)
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil || pid != (addr.ProcessID{Creator: 1, Local: 1}) {
		t.Fatalf("spawned %v, %v", pid, err)
	}
	c.runFor(2_000)
	c.migrate(3, pid, 1, 2)
	for i := 0; i < point && c.eng.Step(); i++ {
	}
	return c, pid
}

// liveCopies lists the machines holding pid as a process, not a forwarding
// address.
func (c *tc) liveCopies(pid addr.ProcessID) []int {
	var at []int
	for m := 1; m <= len(c.ks); m++ {
		if info, ok := c.k(m).Process(pid); ok && info.State != kernel.StateForwarder {
			at = append(at, m)
		}
	}
	return at
}

// TestEarlyEstablishedLeavesOneCopy: the destination's Established reaches
// the source a second time, early — injected from m2 at points across the
// migration. Before the source has streamed the program region it is
// illegal at the source's step and dropped; after, it commits the source,
// whose Cleanup reaches m2 before m2 is established and is dropped, and the
// real Established that follows finds a forwarding address to its sender,
// which the orphan rule answers with message 8 again rather than aborting
// the only copy. Either way exactly one live copy remains. The late case is
// also a real schedule, which internal/chaos's explorer replays ("duplicate
// Established after commit"); the early points stay here because no
// schedule sends an Established before the program region has landed.
func TestEarlyEstablishedLeavesOneCopy(t *testing.T) {
	for _, point := range []int{8, 10, 12, 14, 16} {
		t.Run(fmt.Sprint(point), func(t *testing.T) {
			c, pid := adminScene(t, point)
			c.inject(1, 2, msg.OpMigrateEstablished, legalBodies(pid)[msg.OpMigrateEstablished])
			c.run()
			if at := c.liveCopies(pid); len(at) != 1 {
				t.Fatalf("live copies on %v, want exactly one", at)
			}
			for m := 1; m <= 3; m++ {
				if n := c.k(m).PendingMigrations(); n != 0 {
					t.Errorf("m%d: %d migration halves pending", m, n)
				}
			}
		})
	}
}

// TestIllegalStepIsRejected: a message from the half's own peer at a step
// where its row is not legal is dropped and counted AdminRejected, and the
// migration completes as if it had never been sent — one live copy, on m2,
// reported OK to the requester.
func TestIllegalStepIsRejected(t *testing.T) {
	const (
		resident  = int(msg.RegionResident)
		swappable = int(msg.RegionSwappable)
		program   = int(msg.RegionProgram)
	)
	pid := addr.ProcessID{Creator: 1, Local: 1}
	pm := legalBodies(pid)
	for _, tt := range []struct {
		name     string
		to, from int
		step     int // of the half on `to`, when the message is injected
		op       msg.Op
		body     []byte
	}{
		{"refuse after the first region", 1, 2, swappable, msg.OpMigrateRefuse, pm[msg.OpMigrateRefuse]},
		{"move-data-req for a region streamed", 1, 2, swappable, msg.OpMoveDataReq,
			msg.MoveDataReq{PID: pid, Region: msg.RegionResident, Xfer: 1}.Encode()},
		{"move-data-req for a region ahead", 1, 2, swappable, msg.OpMoveDataReq,
			msg.MoveDataReq{PID: pid, Region: msg.RegionProgram, Xfer: 1}.Encode()},
		{"established before the program region", 1, 2, swappable, msg.OpMigrateEstablished, pm[msg.OpMigrateEstablished]},
		{"established before any region", 1, 2, resident, msg.OpMigrateEstablished, pm[msg.OpMigrateEstablished]},
		{"cleanup before established", 2, 1, program, msg.OpMigrateCleanup, pm[msg.OpMigrateCleanup]},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c, _ := adminScene(t, 0)
			for step, ok := c.k(tt.to).MigrationStep(pid); !ok || step != tt.step; step, ok = c.k(tt.to).MigrationStep(pid) {
				if !c.eng.Step() {
					t.Fatalf("engine idle before m%d's half reached step %d", tt.to, tt.step)
				}
			}
			c.inject(tt.to, tt.from, tt.op, tt.body)
			c.run()
			var rejected uint64
			for m := 1; m <= 3; m++ {
				rejected += c.k(m).Stats().AdminRejected
			}
			if rejected != 1 {
				t.Errorf("AdminRejected = %d, want 1", rejected)
			}
			if at := c.liveCopies(pid); len(at) != 1 || at[0] != 2 {
				t.Errorf("live copies on %v, want one on m2", at)
			}
			if done, n := c.k(3).DoneMigrations(); n != 1 || !done.OK {
				t.Errorf("requester saw %d completions, last %+v, want one OK", n, done)
			}
		})
	}
}
