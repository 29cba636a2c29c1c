// Paper-conformance test for the §6 cost model, measured through the obs
// plane: one clean migration must produce a ledger record with exactly the
// paper's numbers — three move-data transfers, nine administrative messages
// of 6–12 bytes, two extra network messages per forwarded message, and
// link-update convergence after at most two stale sends.
package demosmp_test

import (
	"testing"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/workload"
)

// TestPaperSection6Conformance drives one migration between idle sink
// processes and pins the ledger against §6's administrative cost model.
func TestPaperSection6Conformance(t *testing.T) {
	c, err := demosmp.New(demosmp.Options{Machines: 3})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := c.Spawn(3, kernel.SpawnSpec{Body: &workload.Sink{}})
	if err != nil {
		t.Fatal(err)
	}
	server, err := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if err := c.Migrate(server, 2); err != nil {
		t.Fatal(err)
	}
	c.Run()

	led := c.Ledger()
	if n := len(led.Records()); n != 1 {
		t.Fatalf("ledger has %d records, want 1", n)
	}
	rec := led.Records()[0]
	if !rec.OK || rec.PID != server || rec.From != 1 || rec.To != 2 {
		t.Fatalf("record identity wrong: %+v", rec)
	}

	// "Moving this process requires three data transfers" — resident,
	// swappable, and program (code) regions, each one MoveDataReq stream.
	if rec.MoveDataTransfers != 3 {
		t.Errorf("MoveDataTransfers = %d, want 3 (paper §6)", rec.MoveDataTransfers)
	}
	// "nine administrative messages": request recv, ask sent, accept recv,
	// three move-data requests recv, established recv, cleanup sent, done
	// sent — all seen at the source.
	if rec.AdminMsgs != 9 {
		t.Errorf("AdminMsgs = %d, want 9 (paper §6)", rec.AdminMsgs)
	}
	// "of 6–12 bytes each": every admin payload must land in the range.
	if rec.AdminMinBytes < 6 || rec.AdminMaxBytes > 12 {
		t.Errorf("admin payload range [%d,%d]B outside the paper's 6–12B",
			rec.AdminMinBytes, rec.AdminMaxBytes)
	}
	if rec.AdminBytes < 6*rec.AdminMsgs || rec.AdminBytes > 12*rec.AdminMsgs {
		t.Errorf("AdminBytes = %d inconsistent with %d msgs of 6–12B",
			rec.AdminBytes, rec.AdminMsgs)
	}
	if rec.FreezeMicros() <= 0 {
		t.Errorf("freeze time = %d, want > 0", rec.FreezeMicros())
	}
	if rec.BytesMoved() <= 0 || rec.DataPackets <= 0 {
		t.Errorf("no state moved: bytes=%d packets=%d", rec.BytesMoved(), rec.DataPackets)
	}
	if rec.PendingForwarded != 0 {
		t.Errorf("PendingForwarded = %d for an idle process", rec.PendingForwarded)
	}

	// "Each message that goes through a forwarding address generates two
	// additional messages": a direct send is one network frame; a stale
	// send is that frame plus the forwarded resend plus the link update.
	before := c.NetStats().Frames
	c.Kernel(3).GiveMessageTo(addr.At(server, 2), addr.At(sink, 3), []byte("fresh"))
	c.Run()
	direct := c.NetStats().Frames - before

	before = c.NetStats().Frames
	c.Kernel(3).GiveMessageTo(addr.At(server, 1), addr.At(sink, 3), []byte("stale"))
	c.Run()
	stale := c.NetStats().Frames - before

	if stale-direct != 2 {
		t.Errorf("extra messages per forward = %d (direct=%d stale=%d), want 2 (paper §6)",
			stale-direct, direct, stale)
	}

	// The forward and its update accrued to the migration's record.
	rec = led.Records()[0]
	if rec.ForwardsAbsorbed != 1 || rec.LinkUpdatesSent != 1 {
		t.Errorf("residual attribution: forwards=%d updates=%d, want 1/1",
			rec.ForwardsAbsorbed, rec.LinkUpdatesSent)
	}

	// The registry reads the same run from its single-source samplers.
	snap := c.ObsSnapshot()
	if v := snap.Value("kernel.m1.migrations_out"); v != 1 {
		t.Errorf("registry migrations_out = %d, want 1", v)
	}
	if v := snap.Value("kernel.m1.forwarded"); v != 1 {
		t.Errorf("registry forwarded = %d, want 1", v)
	}
	if v := snap.Value("netw.frames"); v != c.NetStats().Frames {
		t.Errorf("registry frames = %d, netw says %d", v, c.NetStats().Frames)
	}

	t.Logf("§6 measured vs paper: transfers=%d/3 admin=%d/9 payload=[%d,%d]B/[6,12]B extra-per-forward=%d/2",
		rec.MoveDataTransfers, rec.AdminMsgs, rec.AdminMinBytes, rec.AdminMaxBytes, stale-direct)
}

// TestPaperSection6Convergence measures §6's residual-dependency decay with
// a live request/reply conversation: migrating the server mid-exchange, the
// client's link must converge after at most two stale sends (the paper's
// "worst case observed was two messages ... typically ... after the first
// message").
func TestPaperSection6Convergence(t *testing.T) {
	c, err := demosmp.New(demosmp.Options{Machines: 3})
	if err != nil {
		t.Fatal(err)
	}
	server, err := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(60)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Spawn(3, kernel.SpawnSpec{
		Program: workload.RequestClient(60),
		Links:   []link.Link{{Addr: addr.At(server, 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(8_000)
	if err := c.Migrate(server, 2); err != nil {
		t.Fatal(err)
	}
	c.Run()

	led := c.Ledger()
	if n := len(led.Records()); n != 1 {
		t.Fatalf("ledger has %d records, want 1", n)
	}
	rec := led.Records()[0]
	if rec.ForwardsAbsorbed == 0 {
		t.Fatal("migration instant produced no stale sends; the convergence measurement is vacuous")
	}
	if rec.ConvergenceForwards < 1 || rec.ConvergenceForwards > 2 {
		t.Errorf("convergence after %d forwards, paper: 1-2", rec.ConvergenceForwards)
	}
	t.Logf("convergence: %d stale send(s) before the client's link was updated (forwards absorbed: %d)",
		rec.ConvergenceForwards, rec.ForwardsAbsorbed)
}
