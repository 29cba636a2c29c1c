package kernel_test

import (
	"fmt"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/workload"
)

// TestMigrationAbortOnPartition: a network partition mid-transfer trips the
// progress watchdogs on both sides; the explicit abort handshake restores
// the process at the source and discards the placeholder at the
// destination — no split brain, no zombie.
func TestMigrationAbortOnPartition(t *testing.T) {
	c := newTC(t, 3, func(cfg *kernel.Config) { cfg.MigrateTimeout = 400_000 })
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Program: workload.CPUBoundSized(500000, 256<<10)})
	c.runFor(3000)
	c.migrate(3, pid, 1, 2)
	c.runFor(50000) // transfer under way

	// Partition the source for 100ms: the stream dies, both watchdogs
	// eventually fire, and the abort messages cross a healed network.
	c.net.SetDown(1, true)
	c.eng.After(100_000, "heal", func() { c.net.SetDown(1, false) })
	c.run()

	e, m := c.exitOf(pid)
	if m != 1 || e.Code != workload.CPUBoundResult(500000) {
		t.Fatalf("process after aborted migration: %d on m%d", e.Code, m)
	}
	if _, ok := c.k(2).Process(pid); ok {
		t.Fatal("destination kept state after abort")
	}
	f1 := c.k(1).Stats().MigrationsFailed
	f2 := c.k(2).Stats().MigrationsFailed
	if f1 == 0 || f2 == 0 {
		t.Fatalf("failures not recorded on both sides: src=%d dst=%d", f1, f2)
	}
}

// TestMoveFromFailurePath: reading through a link whose owner has no
// memory image fails cleanly back to the initiator.
func TestMoveFromFailure(t *testing.T) {
	c := newTC(t, 2, nil)
	// Owner: native body with NO image.
	owner, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}})
	rb := &readerBody{N: 8}
	reader, _ := c.k(2).Spawn(kernel.SpawnSpec{Body: rb})
	// Mint a (bogus) read link: capability checks pass at the reader's
	// kernel, but the owner's kernel discovers there is nothing to read.
	c.k(2).MintLinkTo(link.Link{
		Addr: addr.At(owner, 1), Attrs: link.AttrDataRead,
		Area: link.DataArea{Length: 64},
	}, reader)
	c.k(2).GiveMessage(reader, addr.KernelAddr(2), []byte("starter"),
		link.Link{Addr: addr.At(owner, 1), Attrs: link.AttrDataRead, Area: link.DataArea{Length: 64}})
	c.run()
	if !rb.Done {
		t.Fatal("reader never got a completion")
	}
	if rb.OK {
		t.Fatal("read from an imageless owner succeeded")
	}
}

// TestContextSurface exercises the remaining procCtx methods through a
// probing body.
func TestContextSurface(t *testing.T) {
	c := newTC(t, 1, nil)
	pb := &ctxProbe{}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: pb, ImageSize: 512})
	c.k(1).GiveMessage(pid, addr.KernelAddr(1), []byte("go"))
	c.run()
	if pb.PID != pid {
		t.Fatalf("ctx.PID = %v", pb.PID)
	}
	if pb.Machine != 1 {
		t.Fatalf("ctx.Machine = %v", pb.Machine)
	}
	if !pb.ImageOK {
		t.Fatal("image round trip failed")
	}
	if !pb.LinkAddrOK {
		t.Fatal("LinkAddr failed")
	}
	out := c.k(1).Console(pid)
	if len(out) != 1 || out[0] != "probe n=7" {
		t.Fatalf("Logf output: %q", out)
	}
	// Kernel accessor surface.
	k := c.k(1)
	if k.Machine() != 1 || k.Config().DataPacket == 0 || k.Crashed() {
		t.Fatal("kernel accessors")
	}
	k.Spawn(kernel.SpawnSpec{Body: &blackholeBody{}})
	if len(k.Processes()) == 0 {
		t.Fatal("Processes empty")
	}
}

type ctxProbe struct {
	PID        addr.ProcessID
	Machine    addr.MachineID
	ImageOK    bool
	LinkAddrOK bool
	done       bool
}

func (p *ctxProbe) Kind() string { return "ctx-probe" }

func (p *ctxProbe) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if _, ok := ctx.Recv(); !ok {
		return 0, proc.Status{State: proc.Blocked}
	}
	if p.done {
		return 0, proc.Status{State: proc.Exited}
	}
	p.done = true
	p.PID = ctx.PID()
	p.Machine = ctx.Machine()
	_ = ctx.Now()
	_ = ctx.Rand()
	ctx.Logf("probe n=%d", 7)
	ctx.ImageWrite(100, []byte{0xAB})
	var b [1]byte
	ctx.ImageRead(100, b[:])
	p.ImageOK = b[0] == 0xAB
	id, _ := ctx.CreateLink(0, link.DataArea{})
	if l, ok := ctx.LinkAddr(id); ok && l.Addr.ID == p.PID {
		p.LinkAddrOK = true
	}
	return 0, proc.Status{State: proc.Exited}
}

func (p *ctxProbe) Snapshot() ([]byte, error) { return nil, nil }
func (p *ctxProbe) Restore([]byte) error      { return nil }

// TestLoadReportsEmitted: kernels with a PM link emit periodic reports on
// weak timers (which do not keep an idle simulation alive).
func TestLoadReportsEmitted(t *testing.T) {
	sink := &loadSink{}
	c := newTCNet(t, 2, netw.Config{}, func(cfg *kernel.Config) {
		cfg.LoadReportEvery = 50_000
	})
	pmPID, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: sink})
	for m := 1; m <= 2; m++ {
		c.k(m).SetPMLink(link.Link{Addr: addr.At(pmPID, 1)})
	}
	// Keep the sim alive with a long computation while reports tick.
	c.k(2).Spawn(kernel.SpawnSpec{Program: workload.CPUBound(400000)})
	c.runFor(500_000)
	if sink.Reports < 5 {
		t.Fatalf("got %d load reports, want several", sink.Reports)
	}
	if sink.Busy == 0 {
		t.Fatal("no report showed CPU activity")
	}
	// With the workload done, Run() must still terminate despite the
	// periodic reports (they are weak events).
	c.run()
}

type loadSink struct {
	Reports int
	Busy    int
}

func (s *loadSink) Kind() string { return "load-sink" }

func (s *loadSink) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op != msg.OpLoadReport {
			continue
		}
		rep, err := msg.DecodeLoadReport(d.Body)
		if err != nil {
			continue
		}
		s.Reports++
		if rep.CPUPercent > 0 {
			s.Busy++
		}
	}
}

func (s *loadSink) Snapshot() ([]byte, error) { return nil, nil }
func (s *loadSink) Restore([]byte) error      { return nil }

// TestReaderBodyRecordsFailure ensures readerBody's failure fields work
// (used by TestMoveFromFailure above).
func TestRequestMigrationFromBody(t *testing.T) {
	c := newTC(t, 2, nil)
	rm := &requestMigrateBody{Dest: 2}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: rm})
	c.k(1).GiveMessage(pid, addr.KernelAddr(1), []byte("go"))
	c.run()
	// No PM configured: the kernel self-manages; the body ends up on m2.
	if _, ok := c.k(2).Process(pid); !ok {
		t.Fatalf("self-requested migration did not move the body")
	}
}

type requestMigrateBody struct {
	Dest  addr.MachineID
	Asked bool
}

func (b *requestMigrateBody) Kind() string { return "req-migrate" }

func (b *requestMigrateBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		if _, ok := ctx.Recv(); !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if !b.Asked {
			b.Asked = true
			ctx.RequestMigration(b.Dest)
		}
	}
}

func (b *requestMigrateBody) Snapshot() ([]byte, error) {
	return []byte{byte(b.Dest), boolByte(b.Asked)}, nil
}

func (b *requestMigrateBody) Restore(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("short")
	}
	b.Dest = addr.MachineID(data[0])
	b.Asked = data[1] != 0
	return nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
