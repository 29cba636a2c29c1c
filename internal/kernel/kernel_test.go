package kernel_test

import (
	"fmt"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/dvm"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// --- harness ----------------------------------------------------------------

type tc struct {
	t   *testing.T
	eng *sim.Engine
	net *netw.Network
	tr  *trace.Tracer
	ks  map[addr.MachineID]*kernel.Kernel
}

func newTC(t *testing.T, machines int, mut func(*kernel.Config)) *tc {
	t.Helper()
	eng := sim.NewEngine(7)
	net := netw.New(eng, netw.Config{})
	tr := trace.New(eng.Now, 0)
	reg := proc.NewRegistry()
	reg.Register("counter", func() proc.Body { return &counterBody{} })
	reg.Register("blackhole", func() proc.Body { return &blackholeBody{} })
	reg.Register("pm-stub", func() proc.Body { return &pmStub{Where: map[addr.ProcessID]addr.MachineID{}} })
	reg.Register("timer", func() proc.Body { return &timerBody{} })
	reg.Register("req-migrate", func() proc.Body { return &requestMigrateBody{} })
	c := &tc{t: t, eng: eng, net: net, tr: tr, ks: map[addr.MachineID]*kernel.Kernel{}}
	for i := 1; i <= machines; i++ {
		cfg := kernel.Config{Tracer: tr, Registry: reg}
		for m := 1; m <= machines; m++ {
			cfg.Machines = append(cfg.Machines, addr.MachineID(m))
		}
		if mut != nil {
			mut(&cfg)
		}
		c.ks[addr.MachineID(i)] = kernel.New(addr.MachineID(i), eng, net, cfg)
	}
	return c
}

func (c *tc) k(m int) *kernel.Kernel { return c.ks[addr.MachineID(m)] }

func (c *tc) run() { c.eng.Run() }

func (c *tc) runFor(d sim.Time) { c.eng.RunFor(d) }

// spawn a VM program on machine m with initial links.
func (c *tc) spawnProg(m int, src string, links ...link.Link) addr.ProcessID {
	c.t.Helper()
	p, err := dvm.Assemble(src)
	if err != nil {
		c.t.Fatalf("assemble: %v", err)
	}
	pid, err := c.k(m).Spawn(kernel.SpawnSpec{Program: p, Links: links})
	if err != nil {
		c.t.Fatal(err)
	}
	return pid
}

func (c *tc) linkTo(pid addr.ProcessID, m int, attrs link.Attr) link.Link {
	return link.Link{Addr: addr.At(pid, addr.MachineID(m)), Attrs: attrs}
}

// exitOf finds the exit record on whichever machine the process died.
func (c *tc) exitOf(pid addr.ProcessID) (kernel.ExitInfo, addr.MachineID) {
	c.t.Helper()
	for m, k := range c.ks {
		if e, ok := k.Exit(pid); ok {
			return e, m
		}
	}
	c.t.Fatalf("process %v never exited", pid)
	return kernel.ExitInfo{}, 0
}

// migrate asks machine `driver` to initiate pid's migration to dest.
func (c *tc) migrate(driver int, pid addr.ProcessID, at int, dest int) {
	c.k(driver).RequestMigrationOf(addr.At(pid, addr.MachineID(at)), addr.MachineID(dest))
}

func (c *tc) totalAdmin() uint64 {
	var n uint64
	for _, k := range c.ks {
		s := k.Stats()
		n += s.AdminTotal()
	}
	return n
}

// --- shared helpers -----------------------------------------------------------

func simTime(v uint64) sim.Time { return sim.Time(v) }

// --- native test bodies -------------------------------------------------------

// counterBody replies to each message with an incrementing count; migratable.
type counterBody struct {
	Count int32
}

func (b *counterBody) Kind() string { return "counter" }

func (b *counterBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if string(d.Body) == "die" {
			return 0, proc.Status{State: proc.Exited, ExitCode: b.Count}
		}
		b.Count++
		if len(d.Carried) > 0 {
			ctx.Send(d.Carried[0], []byte(fmt.Sprintf("count=%d@m%d", b.Count, uint16(ctx.Machine()))))
		}
	}
}

func (b *counterBody) Snapshot() ([]byte, error) { return proc.Snapshot(b) }

func (b *counterBody) Restore(data []byte) error { return proc.Restore(b, data) }

// blackholeBody consumes everything and remembers what it saw.
type blackholeBody struct {
	Got []string
}

func (b *blackholeBody) Kind() string { return "blackhole" }

func (b *blackholeBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		b.Got = append(b.Got, string(d.Body))
	}
}

func (b *blackholeBody) Snapshot() ([]byte, error) { return proc.Snapshot(b) }

func (b *blackholeBody) Restore(data []byte) error { return proc.Restore(b, data) }

// pmStub is a minimal process manager: it records MigrateDone locations and
// answers OpLocate queries (the return-to-sender baseline needs it).
type pmStub struct {
	Where map[addr.ProcessID]addr.MachineID
}

func (b *pmStub) Kind() string { return "pm-stub" }

func (b *pmStub) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		switch d.Op {
		case msg.OpMigrateDone:
			if done, err := msg.DecodeMigrateDone(d.Body); err == nil && done.OK {
				b.Where[done.PID] = done.Machine
			}
		case msg.OpLocate:
			pid, _, err := addr.DecodePID(d.Body)
			if err != nil {
				continue
			}
			machine := b.Where[pid] // zero = unknown
			reply := msg.PIDMachine{PID: pid, Machine: machine}
			l, err := ctx.MintLink(link.Link{Addr: d.From})
			if err != nil {
				continue
			}
			ctx.SendOp(l, msg.OpLocateReply, reply.Encode())
			ctx.DestroyLink(l)
		}
	}
}

func (b *pmStub) Snapshot() ([]byte, error) { return proc.Snapshot(b) }

func (b *pmStub) Restore(data []byte) error { return proc.Restore(b, data) }

// --- VM programs --------------------------------------------------------------

// sumProg computes sum(i*i) for i in 1..n and exits with the result.
func sumProg(n int) string {
	return fmt.Sprintf(`
	start:	movi r1, 0
		movi r2, 0
	loop:	addi r1, r1, 1
		mul r3, r1, r1
		add r2, r2, r3
		cmpi r1, %d
		jlt loop
		mov r0, r2
		sys exit
	`, n)
}

func sumRef(n int) int32 {
	var s int32
	for i := int32(1); i <= int32(n); i++ {
		s += i * i
	}
	return s
}

// --- basic execution ----------------------------------------------------------

func TestSpawnAndRunVM(t *testing.T) {
	c := newTC(t, 1, nil)
	pid := c.spawnProg(1, sumProg(100))
	c.run()
	e, m := c.exitOf(pid)
	if e.Code != sumRef(100) || m != 1 {
		t.Fatalf("exit %d on m%d, want %d on m1", e.Code, m, sumRef(100))
	}
}

func TestVMPingPongAcrossMachines(t *testing.T) {
	c := newTC(t, 2, nil)
	server := c.spawnProg(1, `
		.data
	buf:	.space 64
		.code
	start:	movi r6, 0
	loop:	lea r1, buf
		movi r2, 64
		sys recv
		mov r5, r3        ; carried reply link
		mov r0, r5
		lea r1, buf
		movi r2, 4
		movi r3, 0
		sys send
		addi r6, r6, 1
		cmpi r6, 5
		jlt loop
		movi r0, 0
		sys exit
	`)
	client := c.spawnProg(2, `
		.data
	m:	.asciz "ping"
	buf:	.space 64
		.code
	start:	movi r6, 0
	loop:	movi r1, 8        ; AttrReply
		movi r2, 0
		movi r3, 0
		sys mklink
		mov r3, r0
		movi r0, 1        ; server link
		lea r1, m
		movi r2, 4
		sys send
		lea r1, buf
		movi r2, 64
		sys recv
		addi r6, r6, 1
		cmpi r6, 5
		jlt loop
		mov r0, r6
		sys exit
	`, c.linkTo(server, 1, 0))
	c.run()
	if e, _ := c.exitOf(client); e.Code != 5 {
		t.Fatalf("client exit %d, want 5 round trips", e.Code)
	}
	if e, _ := c.exitOf(server); e.Code != 0 {
		t.Fatalf("server exit %d", e.Code)
	}
}

func TestNativeBodyEcho(t *testing.T) {
	c := newTC(t, 2, nil)
	counter, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	sinkBody := &blackholeBody{}
	sink, _ := c.k(2).Spawn(kernel.SpawnSpec{Body: sinkBody})
	// Drive the counter from outside with a carried reply link to sink.
	for i := 0; i < 3; i++ {
		c.k(1).GiveMessage(counter, addr.At(sink, 2), []byte("hit"),
			c.linkTo(sink, 2, 0))
	}
	c.run()
	if len(sinkBody.Got) != 3 || sinkBody.Got[2] != "count=3@m1" {
		t.Fatalf("sink got %v", sinkBody.Got)
	}
}

// --- migration mechanics (Figure 3-1) ------------------------------------------

func TestMigrationPreservesComputation(t *testing.T) {
	c := newTC(t, 3, nil)
	pid := c.spawnProg(1, sumProg(2000))
	// Let it get partway, then migrate m1 -> m2.
	c.runFor(3000)
	c.migrate(3, pid, 1, 2)
	c.run()
	e, m := c.exitOf(pid)
	if m != 2 {
		t.Fatalf("process finished on m%d, want m2", m)
	}
	if e.Code != sumRef(2000) {
		t.Fatalf("exit %d, want %d — migration corrupted the computation", e.Code, sumRef(2000))
	}
}

func TestMigrationStepsInOrder(t *testing.T) {
	c := newTC(t, 2, nil)
	pid := c.spawnProg(1, sumProg(5000))
	c.runFor(2000)
	c.migrate(2, pid, 1, 2)
	c.run()
	events := c.tr.Events(trace.CatMigrate)
	want := []string{
		"step1-remove-from-execution",
		"step2-ask-destination",
		"step3-allocate-state",
		"step4-transfer-state", // resident
		"step4-transfer-state", // swappable
		"step5-transfer-program",
		"step6-forward-pending",
		"step7-cleanup-forwarding-address",
		"step8-restart",
	}
	var got []string
	for _, e := range events {
		for _, w := range want {
			if e == w {
				got = append(got, e)
				break
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("steps seen: %v\nwant: %v\ntrace:\n%s", got, want, c.tr.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %q, want %q", i, got[i], want[i])
		}
	}
	_, mig := c.exitOf(pid)
	if mig != 2 {
		t.Fatalf("finished on m%d", mig)
	}
}

// The paper's administrative cost: 9 control messages per migration.
func TestNineAdministrativeMessages(t *testing.T) {
	c := newTC(t, 3, nil)
	pid := c.spawnProg(1, sumProg(5000))
	c.runFor(2000)
	before := c.totalAdmin()
	c.migrate(3, pid, 1, 2)
	c.run()
	after := c.totalAdmin()
	if n := after - before; n != 9 {
		t.Fatalf("migration used %d administrative messages, want 9 (paper §6)", n)
	}
	// And the source-side report agrees.
	reps := c.k(1).Reports()
	if len(reps) != 1 || reps[0].AdminMsgs != 9 {
		t.Fatalf("report admin count: %+v", reps)
	}
	if !reps[0].OK || reps[0].To != 2 || reps[0].From != 1 {
		t.Fatalf("report wrong: %+v", reps[0])
	}
}

func TestMigrationReportBytes(t *testing.T) {
	c := newTC(t, 2, nil)
	pid := c.spawnProg(1, sumProg(100000))
	c.runFor(2000)
	c.migrate(2, pid, 1, 2)
	c.run()
	reps := c.k(1).Reports()
	if len(reps) != 1 {
		t.Fatalf("reports: %v", reps)
	}
	r := reps[0]
	if r.PID != pid {
		t.Fatalf("report pid %v", r.PID)
	}
	if r.ProgramBytes <= 0 || r.ProgramBytes%256 != 0 {
		t.Fatalf("program bytes %d", r.ProgramBytes)
	}
	// §6: "For non-trivial processes, the size of the program and data
	// overshadow the size of the system information."
	if r.ProgramBytes <= r.ResidentBytes+r.SwappableBytes {
		t.Fatalf("program %dB should dominate resident %dB + swappable %dB",
			r.ProgramBytes, r.ResidentBytes, r.SwappableBytes)
	}
	if r.DataPackets <= 0 {
		t.Fatal("no data packets recorded")
	}
	if r.FreezeMicros() <= 0 {
		t.Fatal("zero migration latency")
	}
}

func TestMigrateWaitingProcess(t *testing.T) {
	c := newTC(t, 3, nil)
	body := &blackholeBody{}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: body})
	c.runFor(1000) // let it block in receive
	if info, _ := c.k(1).Process(pid); info.State != kernel.StateWaiting {
		t.Fatalf("state %v, want waiting", info.State)
	}
	c.migrate(3, pid, 1, 2)
	c.run()
	info, ok := c.k(2).Process(pid)
	if !ok || info.State != kernel.StateWaiting {
		t.Fatalf("after migration: %+v ok=%v, want waiting on m2", info, ok)
	}
	// It wakes on a message to its new home — sent via the OLD address.
	c.k(3).GiveMessage(pid, addr.KernelAddr(3), nil) // wrong machine: not here
	c.run()
	// The message above was delivered on m3 where the process never was:
	// dead letter. Now through the forwarder on m1:
	c.k(1).GiveMessage(pid, addr.At(addr.ProcessID{Creator: 3, Local: 99}, 3), []byte("wake"))
	c.run()
	moved, ok := c.k(2).BodyOf(pid)
	if !ok {
		t.Fatal("no body on m2")
	}
	got := moved.(*blackholeBody).Got
	if len(got) != 1 || got[0] != "wake" {
		t.Fatalf("forwarded wake lost: %v", got)
	}
}

func TestMigrateNativeBodyKeepsState(t *testing.T) {
	c := newTC(t, 2, nil)
	sinkBody := &blackholeBody{}
	sink, _ := c.k(2).Spawn(kernel.SpawnSpec{Body: sinkBody})
	cb := &counterBody{}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: cb})
	hit := func() {
		c.k(1).GiveMessage(pid, addr.At(sink, 2), []byte("hit"), c.linkTo(sink, 2, 0))
	}
	hit()
	hit()
	c.run()
	c.migrate(2, pid, 1, 2)
	c.run()
	// State moved: the body on m2 continues at 3. (cb itself is the old
	// Go object; the migrated copy is a different instance.)
	c.k(1).GiveMessage(pid, addr.At(sink, 2), []byte("hit"), c.linkTo(sink, 2, 0))
	c.run()
	want := []string{"count=1@m1", "count=2@m1", "count=3@m2"}
	if len(sinkBody.Got) != 3 {
		t.Fatalf("sink got %v", sinkBody.Got)
	}
	for i, w := range want {
		if sinkBody.Got[i] != w {
			t.Fatalf("reply %d = %q, want %q", i, sinkBody.Got[i], w)
		}
	}
}

func TestPendingMessagesForwardedOnce(t *testing.T) {
	c := newTC(t, 3, nil)
	body := &blackholeBody{}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: body})
	// Suspend it so messages pile up in its queue, then migrate.
	c.k(1).RequestMigrationOf(addr.At(pid, 1), 2) // direct migrate while ready
	for i := 0; i < 5; i++ {
		// Injected on m1 where the process is (or is migrating from):
		// some land on the frozen queue, some hit the forwarder.
		c.k(1).GiveMessage(pid, addr.KernelAddr(3), []byte(fmt.Sprintf("m%d", i)))
	}
	c.run()
	_ = body
	moved, ok := c.k(2).BodyOf(pid)
	if !ok {
		t.Fatal("no body on m2")
	}
	got := moved.(*blackholeBody).Got
	if len(got) != 5 {
		t.Fatalf("got %d messages, want 5 exactly-once: %v", len(got), got)
	}
	seen := map[string]bool{}
	for _, g := range got {
		if seen[g] {
			t.Fatalf("duplicate delivery %q", g)
		}
		seen[g] = true
	}
}

func TestMigrationToSelfIsNoop(t *testing.T) {
	c := newTC(t, 2, nil)
	pid := c.spawnProg(1, sumProg(3000))
	c.runFor(1000)
	before := c.totalAdmin()
	c.migrate(2, pid, 1, 1)
	c.run()
	if got := c.totalAdmin() - before; got != 2 {
		t.Fatalf("no-op migration used %d admin messages, want 2 (request+done)", got)
	}
	e, m := c.exitOf(pid)
	if m != 1 || e.Code != sumRef(3000) {
		t.Fatalf("noop migration broke process: %d on m%d", e.Code, m)
	}
	done, n := c.k(2).DoneMigrations()
	if n != 1 || !done.OK || done.Machine != 1 {
		t.Fatalf("done: %d, last %+v", n, done)
	}
}

func TestMigrationRefused(t *testing.T) {
	c := newTC(t, 2, nil)
	c.k(2).SetAccept(func(a msg.MigrateAsk, free int) bool { return false })
	pid := c.spawnProg(1, sumProg(3000))
	c.runFor(1000)
	c.migrate(2, pid, 1, 2)
	c.run()
	// §3.2: "If the destination machine refuses, the process cannot be
	// migrated" — but it keeps running where it was.
	e, m := c.exitOf(pid)
	if m != 1 || e.Code != sumRef(3000) {
		t.Fatalf("refused migration broke process: %d on m%d", e.Code, m)
	}
	done, n := c.k(2).DoneMigrations()
	if n != 1 || done.OK {
		t.Fatalf("done: %d, last %+v", n, done)
	}
	if s := c.k(2).Stats(); s.MigrationsRefused != 1 {
		t.Fatalf("refusals = %d", s.MigrationsRefused)
	}
}

func TestSuspendedProcessMigratesSuspended(t *testing.T) {
	c := newTC(t, 2, nil)
	pid := c.spawnProg(1, sumProg(100000))
	c.runFor(500)
	// Suspend via a DTK control message, as the process manager would.
	c.k(1).GiveControl(pid, msg.OpSuspend, nil)
	c.runFor(1000)
	if info, _ := c.k(1).Process(pid); info.State != kernel.StateSuspended {
		t.Fatalf("state %v, want suspended", info.State)
	}
	c.migrate(2, pid, 1, 2)
	c.run()
	info, ok := c.k(2).Process(pid)
	if !ok || info.State != kernel.StateSuspended {
		t.Fatalf("after migration: %+v, want suspended on m2", info)
	}
	// Resume and let it finish there.
	c.k(2).GiveControl(pid, msg.OpResume, nil)
	c.run()
	e, m := c.exitOf(pid)
	if m != 2 || e.Code != sumRef(100000) {
		t.Fatalf("resumed process: %d on m%d", e.Code, m)
	}
}

// TestProcInfoKind: ProcInfo.Kind is the body's registry kind for a native
// spawn, a VM process and each of them migrated onto its destination, and
// empty for the forwarding address a migration leaves behind.
func TestProcInfoKind(t *testing.T) {
	c := newTC(t, 2, nil)
	native, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}})
	vm := c.spawnProg(1, `
		.data
	buf:	.space 8
		.code
	start:	lea r1, buf
		movi r2, 8
		sys recv
		sys exit
	`)
	c.runFor(1000) // both block in receive
	kindOn := func(m int, pid addr.ProcessID, wantState kernel.ProcState, want string) {
		t.Helper()
		info, ok := c.k(m).Process(pid)
		if !ok || info.State != wantState || info.Kind != want {
			t.Fatalf("m%d holds %v as %+v (ok=%v), want state %v kind %q", m, pid, info, ok, wantState, want)
		}
	}
	kindOn(1, native, kernel.StateWaiting, "blackhole")
	kindOn(1, vm, kernel.StateWaiting, proc.VMKind)
	c.migrate(1, native, 1, 2)
	c.migrate(1, vm, 1, 2)
	c.run()
	kindOn(2, native, kernel.StateWaiting, "blackhole")
	kindOn(2, vm, kernel.StateWaiting, proc.VMKind)
	kindOn(1, native, kernel.StateForwarder, "")
	kindOn(1, vm, kernel.StateForwarder, "")
}
