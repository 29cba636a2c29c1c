package kernel_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/trace"
)

// chatterProg sends n messages on link 1, pausing for a reply after each.
func chatterProg(n int) string {
	return fmt.Sprintf(`
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
		movi r0, 1
		lea r1, m
		movi r2, 4
		sys send
		lea r1, buf
		movi r2, 64
		sys recv
		addi r6, r6, 1
		cmpi r6, %d
		jlt loop
		mov r0, r6
		sys exit
	`, n)
}

// spawnCounter spawns a native counter server on machine m.
func (c *tc) spawnCounter(m int) addr.ProcessID {
	c.t.Helper()
	pid, err := c.k(m).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		c.t.Fatal(err)
	}
	return pid
}

// TestForwardingPath reproduces Figure 4-1: a message sent on a stale link
// arrives at the old machine, hits the forwarding address, and is
// resubmitted to the new machine.
func TestForwardingPath(t *testing.T) {
	c := newTC(t, 3, nil)
	server := c.spawnCounter(1)
	c.migrate(3, server, 1, 2)
	c.run()

	// m1 now holds a forwarding address.
	info, ok := c.k(1).Process(server)
	if !ok || info.State != kernel.StateForwarder || info.FwdTo != 2 {
		t.Fatalf("no forwarder on m1: %+v", info)
	}

	// A client on m3 with a stale link (last known machine = 1).
	sink := &blackholeBody{}
	sinkPID, _ := c.k(3).Spawn(kernel.SpawnSpec{Body: sink})
	c.k(3).GiveMessage(sinkPID, addr.KernelAddr(3), []byte("prime"))
	c.run()

	before := c.k(1).Stats()
	c.k(3).GiveMessageTo(addr.At(server, 1), addr.At(sinkPID, 3), []byte("hit"), c.linkTo(sinkPID, 3, 0))
	c.run()
	after := c.k(1).Stats()
	if after.Forwarded-before.Forwarded != 1 {
		t.Fatalf("forward count: %d", after.Forwarded-before.Forwarded)
	}
	// The reply proves the message reached the migrated server on m2.
	body, _ := c.k(3).BodyOf(sinkPID)
	got := body.(*blackholeBody).Got
	if len(got) != 2 || got[1] != "count=1@m2" {
		t.Fatalf("reply through forwarder: %v", got)
	}
	if !slices.Contains(c.tr.Events(trace.CatAll), "forward") {
		t.Fatal("no forward trace event")
	}
}

// TestLinkUpdateAfterForward reproduces Figure 5-1: forwarding triggers the
// special update message, and the sender's link table is rewritten.
func TestLinkUpdateAfterForward(t *testing.T) {
	c := newTC(t, 3, nil)
	server := c.spawnCounter(1)
	client := c.spawnProg(3, chatterProg(4), c.linkTo(server, 1, 0))
	c.migrate(2, server, 1, 2)
	c.run() // migration completes; client hasn't started talking yet? It has - order is fine either way.
	e, _ := c.exitOf(client)
	if e.Code != 4 {
		t.Fatalf("client finished %d rounds, want 4", e.Code)
	}
	s1 := c.k(1).Stats()
	s3 := c.k(3).Stats()
	if s1.LinkUpdatesSent == 0 {
		t.Fatal("forwarding never sent a link update")
	}
	if s3.LinkUpdatesApplied == 0 || s3.LinksFixed == 0 {
		t.Fatalf("client kernel never applied updates: %+v", s3)
	}
	// After the first update, remaining messages go direct: far fewer
	// forwards than rounds.
	if s1.Forwarded >= 4 {
		t.Fatalf("%d of 4 messages forwarded; link update is not converging", s1.Forwarded)
	}
}

// TestLinkUpdateConvergence measures the paper's §6 claim: "the worst case
// observed was two messages sent over a link before it was updated.
// Typically, the link is updated after the first message."
func TestLinkUpdateConvergence(t *testing.T) {
	c := newTC(t, 3, nil)
	server := c.spawnCounter(1)
	client := c.spawnProg(3, chatterProg(10), c.linkTo(server, 1, 0))
	// Let the conversation start, then migrate mid-stream: the migration
	// is ordered as the client's first reply reaches its queue, so the
	// other nine rounds all go out over the link naming m1.
	for c.k(3).Stats().MsgsEnqueued == 0 {
		if !c.eng.Step() {
			t.Fatal("the client never got its first reply")
		}
	}
	c.migrate(2, server, 1, 2)
	c.run()
	if e, _ := c.exitOf(client); e.Code != 10 {
		t.Fatalf("client rounds: %d", e.Code)
	}
	fwd := c.k(1).Stats().Forwarded
	if fwd == 0 {
		t.Fatal("no message was forwarded: the migration did not overlap the conversation")
	}
	t.Logf("forwarded %d, link updates sent %d", fwd, c.k(1).Stats().LinkUpdatesSent)
	if fwd > 2 {
		t.Fatalf("%d messages forwarded on one link, paper's worst case is 2", fwd)
	}
}

// TestForwardChain: migrate a server twice; messages traverse two
// forwarding addresses, and the link update points the sender directly at
// the final location.
func TestForwardChain(t *testing.T) {
	c := newTC(t, 4, nil)
	server := c.spawnCounter(1)
	c.migrate(4, server, 1, 2)
	c.run()
	c.migrate(4, server, 2, 3)
	c.run()

	sink := &blackholeBody{}
	sinkPID, _ := c.k(4).Spawn(kernel.SpawnSpec{Body: sink})
	// Send with a doubly-stale link still pointing at the birth machine.
	c.k(4).GiveMessageTo(addr.At(server, 1), addr.At(sinkPID, 4), []byte("hit"), c.linkTo(sinkPID, 4, 0))
	c.run()
	got := sink.Got
	if len(got) != 1 || got[0] != "count=1@m3" {
		t.Fatalf("through 2-hop chain: %v", got)
	}
	if f1 := c.k(1).Stats().Forwarded; f1 != 1 {
		t.Fatalf("m1 forwards = %d", f1)
	}
	if f2 := c.k(2).Stats().Forwarded; f2 != 1 {
		t.Fatalf("m2 forwards = %d", f2)
	}
	// Both forwarders are 8 bytes of storage (§4).
	if b := c.k(1).Stats().ForwarderBytes; b != kernel.ForwarderWireSize {
		t.Fatalf("forwarder storage on m1 = %d bytes, want 8", b)
	}
	enc := kernel.EncodeForwarder(server, 3, 2)
	if len(enc) != 8 {
		t.Fatalf("encoded forwarding address = %d bytes, want 8 (paper §4)", len(enc))
	}
}

// TestForwarderGC: with ReclaimForwarders on, death notices walk backwards
// along the migration path and remove the chain (§4's proposed mechanism).
func TestForwarderGC(t *testing.T) {
	c := newTC(t, 3, func(cfg *kernel.Config) { cfg.ReclaimForwarders = true })
	server := c.spawnCounter(1)
	c.migrate(3, server, 1, 2)
	c.run()
	c.migrate(3, server, 2, 3)
	c.run()
	// Kill the process on m3; both forwarders must be reclaimed.
	c.k(3).GiveControl(server, msg.OpKill, nil)
	c.run()
	if _, ok := c.k(2).Process(server); ok {
		t.Fatal("forwarder on m2 not reclaimed")
	}
	if _, ok := c.k(1).Process(server); ok {
		t.Fatal("forwarder on m1 not reclaimed")
	}
	total := c.k(1).Stats().ForwardersReclaimed + c.k(2).Stats().ForwardersReclaimed
	if total != 2 {
		t.Fatalf("reclaimed = %d, want 2", total)
	}
}

// TestForwardersPersistByDefault matches the paper's deployed behavior:
// "we have not found it necessary to remove forwarding addresses."
func TestForwardersPersistByDefault(t *testing.T) {
	c := newTC(t, 2, nil)
	server := c.spawnCounter(1)
	c.migrate(2, server, 1, 2)
	c.run()
	c.k(2).GiveControl(server, msg.OpKill, nil)
	c.run()
	info, ok := c.k(1).Process(server)
	if !ok || info.State != kernel.StateForwarder {
		t.Fatal("forwarder should persist after process death by default")
	}
}

// TestReturnToSenderBaseline exercises the §4 alternative end to end:
// bounce, locate via the process manager, resend.
func TestReturnToSenderBaseline(t *testing.T) {
	c := newTC(t, 3, func(cfg *kernel.Config) {
		cfg.Mode = kernel.ModeReturnToSender
	})
	// Spawn the PM stub on m1 and point every kernel's PMLink at it.
	pm, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: &pmStub{Where: map[addr.ProcessID]addr.MachineID{}}, Privileged: true})
	for _, m := range []int{1, 2, 3} {
		c.k(m).SetPMLink(link.Link{Addr: addr.At(pm, 1)})
	}
	pmBody, _ := c.k(1).BodyOf(pm)

	server := c.spawnCounter(2)
	// Drive the migration *as if the PM requested it* so OpMigrateDone is
	// delivered to the PM process and recorded in its location table.
	c.k(2).GiveControlFrom(addr.At(pm, 1), server, msg.OpMigrateRequest,
		msg.MigrateRequest{PID: server, Dest: 3}.Encode())
	c.run()
	if w := pmBody.(*pmStub).Where[server]; w != 3 {
		t.Fatalf("PM did not record new location: %v", w)
	}
	// No forwarder in this mode: "This method does not require any
	// process state to be left behind on the source processor."
	if _, ok := c.k(2).Process(server); ok {
		t.Fatal("return-to-sender mode must not leave a forwarding address")
	}
	// A client with a stale link: message bounces, is located, resent.
	sink := &blackholeBody{}
	sinkPID, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: sink})
	c.k(1).GiveMessageTo(addr.At(server, 2), addr.At(sinkPID, 1), []byte("hit"), c.linkTo(sinkPID, 1, 0))
	c.run()
	if len(sink.Got) != 1 || sink.Got[0] != "count=1@m3" {
		t.Fatalf("bounced message lost: %v", sink.Got)
	}
	s2 := c.k(2).Stats()
	s1 := c.k(1).Stats()
	if s2.Bounced == 0 || s1.LocateRequests == 0 || s1.Resubmitted == 0 {
		t.Fatalf("baseline path not exercised: bounced=%d locate=%d resent=%d",
			s2.Bounced, s1.LocateRequests, s1.Resubmitted)
	}
}

// TestEagerUpdateAblation: broadcast updates fix every kernel's tables at
// migration time, so no forwards and no lazy updates happen afterwards —
// at the cost of messages to every machine.
func TestEagerUpdateAblation(t *testing.T) {
	c := newTC(t, 4, func(cfg *kernel.Config) { cfg.EagerUpdate = true })
	server := c.spawnCounter(1)
	// A client that holds a link but is idle during migration.
	holder, _ := c.k(3).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}})
	c.k(3).MintLinkTo(link.Link{Addr: addr.At(server, 1)}, holder)

	c.migrate(4, server, 1, 2)
	c.run()
	if n := c.k(1).Stats().EagerUpdatesSent; n != 3 {
		t.Fatalf("eager updates sent = %d, want 3 (one per other machine)", n)
	}
	// The idle holder's link was fixed without it ever sending — the
	// defining difference from lazy updating.
	fixed := false
	c.k(3).VisitLinks(holder, func(_ link.ID, l link.Link) {
		if l.Addr.ID == server {
			if l.Addr.LastKnown != 2 {
				t.Fatalf("holder link still stale: %v", l)
			}
			fixed = true
		}
	})
	if !fixed {
		t.Fatal("holder lost its link")
	}
}

// TestMoveDataAcrossMachines: a VM process grants a writable data area; a
// native writer on another machine streams into it; the VM reads it back.
func TestMoveDataAcrossMachines(t *testing.T) {
	c := newTC(t, 2, nil)
	// Owner: creates link with a 256-byte writable area over its data
	// segment, sends it to the writer, waits for a "go" message, then
	// exits with the first word of the area.
	owner := c.spawnProg(1, `
		.data
	area:	.space 256
	buf:	.space 16
		.code
	start:	movi r1, 4        ; AttrDataWrite
		lea r2, area
		movi r3, 256
		sys mklink
		mov r3, r0        ; carry the area link
		movi r0, 1        ; writer link
		lea r1, buf
		movi r2, 0
		sys send
		lea r1, buf       ; wait for the writer's "done" note
		movi r2, 16
		sys recv
		lea r1, area
		ldw r0, r1, 0
		sys exit
	`)
	wb := &writerBody{Payload: []byte{0x2A, 0, 0, 0, 9, 9}}
	writer, _ := c.k(2).Spawn(kernel.SpawnSpec{Body: wb, Privileged: true})
	// Give the owner a link to the writer (slot 1).
	c.k(1).MintLinkTo(link.Link{Addr: addr.At(writer, 2)}, owner)
	c.run()
	e, _ := c.exitOf(owner)
	if e.Code != 0x2A {
		t.Fatalf("owner read %#x from its area, want 0x2a", e.Code)
	}
	if !wb.DoneOK {
		t.Fatal("writer never saw MoveTo completion")
	}
}

// writerBody waits for a carried data-area link, MoveTo's its payload, and
// on completion pokes the owner.
type writerBody struct {
	Payload []byte
	AreaLnk link.ID
	From    addr.ProcessAddr
	DoneOK  bool
}

func (b *writerBody) Kind() string { return "writer" }

func (b *writerBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		switch {
		case len(d.Carried) > 0: // the data-area link arrived
			b.AreaLnk = d.Carried[0]
			b.From = d.From
			if err := ctx.MoveTo(b.AreaLnk, 0, b.Payload, 77); err != nil {
				return 0, proc.Status{State: proc.Crashed, Err: err}
			}
		case d.Op == msg.OpMoveWriteDone:
			b.DoneOK = d.OK && d.Xfer == 77
			// Poke the owner so it reads the area.
			l, err := ctx.MintLink(link.Link{Addr: b.From})
			if err == nil {
				ctx.Send(l, []byte("done"))
			}
		}
	}
}

func (b *writerBody) Snapshot() ([]byte, error) { return nil, nil }
func (b *writerBody) Restore([]byte) error      { return nil }

// TestMoveFromReadsRemoteArea: MoveFrom pulls bytes out of a remote image.
func TestMoveFromReadsRemoteArea(t *testing.T) {
	c := newTC(t, 2, nil)
	owner := c.spawnProg(1, `
		.data
	area:	.word 0x11223344, 0x55667788
	buf:	.space 8
		.code
	start:	movi r1, 2        ; AttrDataRead
		lea r2, area
		movi r3, 8
		sys mklink
		mov r3, r0
		movi r0, 1        ; reader link
		lea r1, buf
		movi r2, 0
		sys send
		lea r1, buf
		movi r2, 8
		sys recv          ; block forever-ish
		movi r0, 0
		sys exit
	`)
	rb := &readerBody{N: 8}
	reader, _ := c.k(2).Spawn(kernel.SpawnSpec{Body: rb})
	c.k(1).MintLinkTo(link.Link{Addr: addr.At(reader, 2)}, owner)
	c.run()
	want := []byte{0x44, 0x33, 0x22, 0x11, 0x88, 0x77, 0x66, 0x55}
	if !bytes.Equal(rb.Data, want) {
		t.Fatalf("MoveFrom read %x, want %x", rb.Data, want)
	}
}

type readerBody struct {
	N    uint32
	Data []byte
	Done bool
	OK   bool
}

func (b *readerBody) Kind() string { return "reader" }

func (b *readerBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		switch {
		case len(d.Carried) > 0:
			if err := ctx.MoveFrom(d.Carried[0], 0, b.N, 5); err != nil {
				return 0, proc.Status{State: proc.Crashed, Err: err}
			}
		case d.Op == msg.OpMoveReadDone:
			b.Data = d.Data
			b.Done = true
			b.OK = d.OK
			return 0, proc.Status{State: proc.Exited}
		}
	}
}

func (b *readerBody) Snapshot() ([]byte, error) { return nil, nil }
func (b *readerBody) Restore([]byte) error      { return nil }

// privilegeBody verifies unprivileged processes cannot mint links or send
// control operations.
func TestPrivilegeEnforcement(t *testing.T) {
	c := newTC(t, 1, nil)
	pb := &privProbe{}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: pb})
	c.k(1).GiveMessage(pid, addr.KernelAddr(1), []byte("go"))
	c.run()
	if pb.MintErr == nil {
		t.Fatal("unprivileged MintLink succeeded")
	}
}

type privProbe struct {
	MintErr error
	done    bool
}

func (b *privProbe) Kind() string { return "privprobe" }

func (b *privProbe) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if _, ok := ctx.Recv(); !ok {
		return 0, proc.Status{State: proc.Blocked}
	}
	if b.done {
		return 0, proc.Status{State: proc.Exited}
	}
	b.done = true
	_, b.MintErr = ctx.MintLink(link.Link{Addr: addr.KernelAddr(1)})
	return 0, proc.Status{State: proc.Exited}
}

func (b *privProbe) Snapshot() ([]byte, error) { return nil, nil }
func (b *privProbe) Restore([]byte) error      { return nil }

// TestCrashedMachineUndelivered: messages to a crashed machine die after
// retries; the network reports them.
func TestCrashedMachine(t *testing.T) {
	c := newTC(t, 2, nil)
	body := &blackholeBody{}
	pid, _ := c.k(2).Spawn(kernel.SpawnSpec{Body: body})
	c.runFor(100)
	c.k(2).Crash()
	c.k(1).GiveMessage(pid, addr.KernelAddr(1), []byte("lost"))
	c.run()
	if len(body.Got) != 0 {
		t.Fatal("crashed machine received a message")
	}
}

// TestTimers: SetTimer deliveries arrive, and follow a migration.
func TestTimerFollowsMigration(t *testing.T) {
	c := newTC(t, 2, nil)
	tb := &timerBody{Delay: 50000}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: tb})
	c.runFor(5000) // body armed its timer on m1
	c.migrate(2, pid, 1, 2)
	c.run()
	moved, ok := c.k(2).BodyOf(pid)
	if !ok {
		t.Fatal("no body on m2")
	}
	if got := moved.(*timerBody).FiredTag; got != 42 {
		t.Fatalf("timer tag = %d, want 42 (timer lost in migration)", got)
	}
}

type timerBody struct {
	Delay    uint64
	Armed    bool
	FiredTag uint16
}

func (b *timerBody) Kind() string { return "timer" }

func (b *timerBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if !b.Armed {
		b.Armed = true
		ctx.SetTimer(simTime(b.Delay), 42)
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op == msg.OpTimer {
			// Record and keep living so the test can inspect the
			// migrated body instance.
			b.FiredTag = d.Xfer
		}
	}
}

func (b *timerBody) Snapshot() ([]byte, error) { return proc.Snapshot(b) }

func (b *timerBody) Restore(data []byte) error { return proc.Restore(b, data) }

// TestMoveToThroughForwarderCompletesAfterAllBytes is the regression test
// for a protocol bug the migration soak uncovered: a multi-packet write
// stream routed through a forwarding address can arrive out of order
// (the smaller last packet overtakes the bigger first one), and the write
// must not be reported complete until every byte has actually landed.
func TestMoveToThroughForwarderCompletesAfterAllBytes(t *testing.T) {
	c := newTC(t, 3, nil)
	// Owner grants a 600-byte writable area, ships the link to the
	// writer, then waits; when poked after the write completes it checks
	// the FIRST byte (carried by the big first packet).
	owner := c.spawnProg(1, `
		.data
	area:	.space 600
	buf:	.space 16
		.code
	start:	movi r1, 4        ; AttrDataWrite
		lea r2, area
		movi r3, 600
		sys mklink
		mov r3, r0
		movi r0, 1        ; writer link
		lea r1, buf
		movi r2, 0
		sys send
		lea r1, buf       ; wait for the writer's completion poke
		movi r2, 16
		sys recv
		lea r1, area
		ldb r0, r1, 0     ; first byte: travels in the FIRST packet
		sys exit
	`)
	payload := make([]byte, 600) // 512B packet + 88B Last packet
	for i := range payload {
		payload[i] = byte(i%200 + 7)
	}
	wb := &gatedWriter{Payload: payload}
	writer, _ := c.k(2).Spawn(kernel.SpawnSpec{Body: wb, Privileged: true})
	c.k(1).MintLinkTo(link.Link{Addr: addr.At(writer, 2)}, owner)

	// Let the owner hand over the link, migrate the owner so the area
	// link goes stale, and only then let the writer stream: the packets
	// must traverse the m1 forwarder.
	c.run()
	c.migrate(3, owner, 1, 3)
	c.run()
	c.k(2).GiveMessage(writer, addr.KernelAddr(2), []byte("go"))
	c.run()
	e, m := c.exitOf(owner)
	if m != 3 {
		t.Fatalf("owner finished on m%d", m)
	}
	if !wb.DoneOK {
		t.Fatal("writer never completed")
	}
	if e.Code != int32(payload[0]) {
		t.Fatalf("first byte = %d, want %d: completion raced the data through the forwarder",
			e.Code, payload[0])
	}
}

// gatedWriter holds the carried area link until told "go", then MoveTo's
// its payload and pokes the area's owner on completion.
type gatedWriter struct {
	Payload []byte
	AreaLnk link.ID
	From    addr.ProcessAddr
	DoneOK  bool
}

func (b *gatedWriter) Kind() string { return "gated-writer" }

func (b *gatedWriter) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		switch {
		case len(d.Carried) > 0:
			b.AreaLnk = d.Carried[0]
			b.From = d.From
		case string(d.Body) == "go":
			if err := ctx.MoveTo(b.AreaLnk, 0, b.Payload, 99); err != nil {
				return 0, proc.Status{State: proc.Crashed, Err: err}
			}
		case d.Op == msg.OpMoveWriteDone:
			b.DoneOK = d.OK && d.Xfer == 99
			l, err := ctx.MintLink(link.Link{Addr: b.From})
			if err == nil {
				ctx.Send(l, []byte("done"))
			}
		}
	}
}

func (b *gatedWriter) Snapshot() ([]byte, error) { return nil, nil }
func (b *gatedWriter) Restore([]byte) error      { return nil }
