package kernel_test

import (
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/workload"
)

// TestReplyLinkSingleUse: §2.4 — reply links "are used only once to respond
// to requests". The kernel destroys the holder's copy after one send.
func TestReplyLinkSingleUse(t *testing.T) {
	c := newTC(t, 1, nil)
	// A VM program that creates a reply link to itself, then tries to
	// send on it twice; the second send must fail (r0 = -1).
	pid := c.spawnProg(1, `
		.data
	buf:	.space 8
		.code
	start:	movi r1, 8         ; AttrReply
		movi r2, 0
		movi r3, 0
		sys mklink
		mov r5, r0         ; the reply link
		mov r0, r5
		lea r1, buf
		movi r2, 4
		movi r3, 0
		sys send           ; first use: ok (r0=0)
		mov r6, r0
		mov r0, r5
		lea r1, buf
		movi r2, 4
		movi r3, 0
		sys send           ; second use: link gone (r0=-1)
		add r0, r0, r6     ; 0 + (-1) = -1
		sys exit
	`)
	c.run()
	e, _ := c.exitOf(pid)
	if e.Code != -1 {
		t.Fatalf("exit %d; reply link was reusable", e.Code)
	}
}

// TestSendOnDestroyedLink: destroying a link makes sends fail cleanly.
func TestSendOnDestroyedLink(t *testing.T) {
	c := newTC(t, 1, nil)
	pid := c.spawnProg(1, `
		.data
	buf:	.space 8
		.code
	start:	movi r1, 0
		movi r2, 0
		movi r3, 0
		sys mklink
		mov r5, r0
		mov r0, r5
		sys rmlink         ; destroy it
		mov r0, r5
		lea r1, buf
		movi r2, 4
		movi r3, 0
		sys send
		sys exit           ; r0 = -1 from the failed send
	`)
	c.run()
	if e, _ := c.exitOf(pid); e.Code != -1 {
		t.Fatalf("exit %d; send on destroyed link succeeded", e.Code)
	}
}

// TestDataAreaMustFitImage: a link cannot grant memory the process does not
// have.
func TestDataAreaMustFitImage(t *testing.T) {
	c := newTC(t, 1, nil)
	pid := c.spawnProg(1, `
	start:	movi r1, 4         ; AttrDataWrite
		movi r2, 0
		movi r3, 0x7FFFFFF ; absurd area length
		sys mklink
		sys exit           ; r0 = -1
	`)
	c.run()
	if e, _ := c.exitOf(pid); e.Code != -1 {
		t.Fatalf("exit %d; oversized data area accepted", e.Code)
	}
}

// TestVMFaultTerminatesProcess: a division by zero kills the process and
// records the crash.
func TestVMFaultTerminatesProcess(t *testing.T) {
	c := newTC(t, 1, nil)
	pid := c.spawnProg(1, `
	start:	movi r1, 0
		div r0, r0, r1
		sys exit
	`)
	c.run()
	e, _ := c.exitOf(pid)
	if e.Err == nil || !strings.Contains(e.Err.Error(), "division by zero") {
		t.Fatalf("crash not recorded: %+v", e)
	}
	if s := c.k(1).Stats(); s.Crashes != 1 {
		t.Fatalf("crash counter = %d", s.Crashes)
	}
}

// TestConsoleCapture: sys print reaches the per-process console and is
// preserved per machine.
func TestConsoleCapture(t *testing.T) {
	c := newTC(t, 1, nil)
	pid := c.spawnProg(1, `
		.data
	m:	.asciz "hello from the vm"
		.code
	start:	lea r1, m
		movi r2, 17
		sys print
		movi r0, 0
		sys exit
	`)
	c.run()
	out := c.k(1).Console(pid)
	if len(out) != 1 || out[0] != "hello from the vm" {
		t.Fatalf("console: %q", out)
	}
}

// TestCreateProcessControl: the OpCreateProcess kernel operation
// instantiates a registered program and reports back.
func TestCreateProcessControl(t *testing.T) {
	c := newTC(t, 2, func(cfg *kernel.Config) {
		cfg.Programs = func(name string, args []string) (kernel.SpawnSpec, error) {
			return kernel.SpawnSpec{Program: workload.CPUBound(100)}, nil
		}
	})
	req := msg.CreateProcess{Tag: 5, Name: "cpu"}
	// Injected at m2's kernel, as the process manager's minted kernel
	// link would deliver it.
	c.k(2).GiveControlFrom(addr.KernelAddr(1), addr.KernelPID(2), msg.OpCreateProcess, req.Encode())
	c.run()
	// The created process ran on m2 to completion.
	e, ok := c.k(2).Exit(addr.ProcessID{Creator: 2, Local: 1})
	if !ok || e.Code != workload.CPUBoundResult(100) {
		t.Fatalf("created process: %+v ok=%v", e, ok)
	}
}

// TestSuspendWaitingThenResume: a process suspended while waiting for a
// message resumes into waiting, and wakes when a message finally arrives.
func TestSuspendWaitingThenResume(t *testing.T) {
	c := newTC(t, 1, nil)
	body := &blackholeBody{}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: body})
	c.runFor(1000)
	c.k(1).GiveControl(pid, msg.OpSuspend, nil)
	c.runFor(1000)
	if info, _ := c.k(1).Process(pid); info.State != kernel.StateSuspended {
		t.Fatalf("state %v", info.State)
	}
	// Messages arriving while suspended queue up.
	c.k(1).GiveMessage(pid, addr.KernelAddr(1), []byte("queued"))
	c.runFor(1000)
	if len(body.Got) != 0 {
		t.Fatal("suspended process ran")
	}
	c.k(1).GiveControl(pid, msg.OpResume, nil)
	c.run()
	if len(body.Got) != 1 || body.Got[0] != "queued" {
		t.Fatalf("after resume: %v", body.Got)
	}
}

// TestUserMessageToKernelIsDeadLetter: kernels only speak control.
func TestUserMessageToKernelIsDeadLetter(t *testing.T) {
	c := newTC(t, 2, nil)
	c.k(1).GiveMessageTo(addr.KernelAddr(2), addr.KernelAddr(1), []byte("hi kernel"))
	c.run()
	if s := c.k(2).Stats(); s.DeadLetters != 1 {
		t.Fatalf("dead letters = %d", s.DeadLetters)
	}
}

// TestLinkTableCapEnforced: spawning with more initial links than the table
// allows fails cleanly.
func TestLinkTableCapEnforced(t *testing.T) {
	c := newTC(t, 1, nil)
	target := addr.At(addr.ProcessID{Creator: 1, Local: 99}, 1)
	links := make([]link.Link, link.DefaultCap+1)
	for i := range links {
		links[i] = link.Link{Addr: target}
	}
	if _, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}, Links: links[:link.DefaultCap]}); err != nil {
		t.Fatalf("spawn at the link table cap refused: %v", err)
	}
	if _, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}, Links: links}); err == nil {
		t.Fatal("spawn over link table cap accepted")
	}
}

// TestCarriedLinksInstalledInOrder: multiple carried links arrive as
// consecutive table entries in message order.
func TestCarriedLinksInstalledInOrder(t *testing.T) {
	c := newTC(t, 2, nil)
	body := &blackholeBody{}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: body})
	a := addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2)
	b := addr.At(addr.ProcessID{Creator: 2, Local: 2}, 2)
	c.k(1).GiveMessage(pid, addr.KernelAddr(1), []byte("x"),
		link.Link{Addr: a}, link.Link{Addr: b, Attrs: link.AttrReply})
	c.run()
	links := c.k(1).LinksOf(pid)
	if len(links) != 2 {
		t.Fatalf("links installed: %v", links)
	}
	if links[1].Addr != a || links[2].Addr != b || links[2].Attrs != link.AttrReply {
		t.Fatalf("order/attrs wrong: %v", links)
	}
}

// TestForwarderCountsInProcInfo: a forwarding address shows up as a
// degenerate process with its target.
func TestForwarderProcInfo(t *testing.T) {
	c := newTC(t, 2, nil)
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}})
	c.migrate(2, pid, 1, 2)
	c.run()
	info, ok := c.k(1).Process(pid)
	if !ok || info.State != kernel.StateForwarder || info.FwdTo != 2 {
		t.Fatalf("forwarder info: %+v", info)
	}
	// It has no body.
	if _, hasBody := c.k(1).BodyOf(pid); hasBody {
		t.Fatal("forwarder has a body")
	}
}

// TestVMProcessMigratesWhileBlockedMidReceive: the paper's "the process
// will be in the same state when it reaches its destination" for a VM
// process parked inside the SYS recv instruction.
func TestVMBlockedReceiveMigrates(t *testing.T) {
	c := newTC(t, 2, nil)
	pid := c.spawnProg(1, `
		.data
	buf:	.space 32
		.code
	start:	lea r1, buf
		movi r2, 32
		sys recv          ; blocks here; migrated while parked
		sys exit          ; exit code = received length
	`)
	c.runFor(2000)
	c.migrate(2, pid, 1, 2)
	c.run()
	if info, _ := c.k(2).Process(pid); info.State != kernel.StateWaiting {
		t.Fatalf("state on m2: %v", info.State)
	}
	c.k(1).GiveMessage(pid, addr.KernelAddr(1), []byte("sevenb!")) // via forwarder
	c.run()
	e, m := c.exitOf(pid)
	if m != 2 || e.Code != 7 {
		t.Fatalf("woke with %d on m%d, want 7 on m2", e.Code, m)
	}
}

// TestSelfLink: "processes may have more than one link to a given process
// (including to themselves)" (§5). A process sends itself a message and
// receives it.
func TestSelfLink(t *testing.T) {
	c := newTC(t, 1, nil)
	pid := c.spawnProg(1, `
		.data
	m:	.asciz "loop"
	buf:	.space 16
		.code
	start:	movi r1, 0
		movi r2, 0
		movi r3, 0
		sys mklink        ; link to self
		lea r1, m
		movi r2, 4
		movi r3, 0
		sys send          ; to self
		lea r1, buf
		movi r2, 16
		sys recv
		sys exit          ; exit = received length (4)
	`)
	c.run()
	if e, _ := c.exitOf(pid); e.Code != 4 {
		t.Fatalf("self-send exit %d, want 4", e.Code)
	}
}

// TestSelfLinkSurvivesMigration: the self-link keeps working after the
// process moves — it is just another context-independent link.
func TestSelfLinkSurvivesMigration(t *testing.T) {
	c := newTC(t, 2, nil)
	pid := c.spawnProg(1, `
		.data
	m:	.asciz "x"
	buf:	.space 16
		.code
	start:	movi r1, 0
		movi r2, 0
		movi r3, 0
		sys mklink
		mov r6, r0        ; self link
		movi r7, 0        ; counter
	loop:	mov r0, r6
		lea r1, m
		movi r2, 1
		movi r3, 0
		sys send
		lea r1, buf
		movi r2, 16
		sys recv
		addi r7, r7, 1
		cmpi r7, 50
		jlt loop
		mov r0, r7
		sys exit
	`)
	c.runFor(3000)
	c.migrate(2, pid, 1, 2)
	c.run()
	e, m := c.exitOf(pid)
	if m != 2 || e.Code != 50 {
		t.Fatalf("self-messaging across migration: %d rounds on m%d", e.Code, m)
	}
}
