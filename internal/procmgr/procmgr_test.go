package procmgr_test

import (
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/policy"
	"demosmp/internal/proc"
	"demosmp/internal/procmgr"
	"demosmp/internal/proctest"
)

func step(t *testing.T, m proc.Body, ctx *proctest.Ctx) {
	t.Helper()
	if _, st := m.Step(ctx, 1); st.State != proc.Blocked {
		t.Fatalf("pm stopped: %+v", st)
	}
}

func pid(l uint16) addr.ProcessID { return addr.ProcessID{Creator: 2, Local: addr.LocalUID(l)} }

func TestEventRoundTrip(t *testing.T) {
	in := procmgr.Event{What: "migrated", PID: pid(3), Machine: 4, Tag: 9}
	out, err := procmgr.DecodeEvent(procmgr.EncodeEvent(in))
	if err != nil || out != in {
		t.Fatalf("%+v %v", out, err)
	}
	if _, err := procmgr.DecodeEvent([]byte{5, 'a'}); err == nil {
		t.Fatal("decoded garbage")
	}
}

func TestCmdMigrateIssuesRequest(t *testing.T) {
	m := procmgr.New(nil)
	m.Note(pid(1), 2)
	ctx := proctest.New()
	reply, _ := ctx.MintLink(link.Link{Attrs: link.AttrReply})
	ctx.PushBody(addr.KernelAddr(1), procmgr.CmdMigrate(pid(1), 3), reply)
	step(t, m, ctx)

	sent, ok := ctx.LastSend()
	if !ok || sent.Op != msg.OpMigrateRequest {
		t.Fatalf("no request: %+v", sent)
	}
	req, err := msg.DecodeMigrateRequest(sent.Body)
	if err != nil || req.PID != pid(1) || req.Dest != 3 {
		t.Fatalf("request: %+v %v", req, err)
	}
	// The minted link was DELIVERTOKERNEL to the process at its known
	// location.
	l := ctx.Links[sent.On]
	if l.Attrs&link.AttrDeliverToKernel == 0 {
		// The link was destroyed after use; that is also acceptable —
		// check the table no longer holds it.
		if _, still := ctx.Links[sent.On]; still {
			t.Fatalf("request link not DTK: %v", l)
		}
	}
	if m.MigrationsOrdered != 1 {
		t.Fatalf("ordered = %d", m.MigrationsOrdered)
	}

	// MigrateDone updates locations and relays the event.
	done := msg.MigrateDone{PID: pid(1), Machine: 3, OK: true}
	ctx.Push(proc.Delivery{Op: msg.OpMigrateDone, Body: done.Encode()})
	step(t, m, ctx)
	if m.Locations[pid(1)] != 3 {
		t.Fatalf("location: %v", m.Locations[pid(1)])
	}
	sent, _ = ctx.LastSend()
	ev, err := procmgr.DecodeEvent(sent.Body)
	if err != nil || ev.What != "migrated" || ev.Machine != 3 {
		t.Fatalf("event: %+v %v", ev, err)
	}
}

func TestFailedMigrationEvent(t *testing.T) {
	m := procmgr.New(nil)
	ctx := proctest.New()
	reply, _ := ctx.MintLink(link.Link{Attrs: link.AttrReply})
	ctx.PushBody(addr.KernelAddr(1), procmgr.CmdMigrate(pid(1), 3), reply)
	ctx.Push(proc.Delivery{Op: msg.OpMigrateDone,
		Body: msg.MigrateDone{PID: pid(1), Machine: 1, OK: false}.Encode()})
	step(t, m, ctx)
	sent, _ := ctx.LastSend()
	if ev, _ := procmgr.DecodeEvent(sent.Body); ev.What != "migrate-failed" {
		t.Fatalf("event: %+v", ev)
	}
	if _, known := m.Locations[pid(1)]; known {
		t.Fatal("failed migration updated the location table")
	}
}

func TestCmdSpawn(t *testing.T) {
	m := procmgr.New(nil)
	ctx := proctest.New()
	reply, _ := ctx.MintLink(link.Link{Attrs: link.AttrReply})
	ctx.PushBody(addr.KernelAddr(1), procmgr.CmdSpawn(2, 7, "hog", "a", "b"), reply)
	step(t, m, ctx)
	sent, ok := ctx.LastSend()
	if !ok || sent.Op != msg.OpCreateProcess {
		t.Fatalf("spawn: %+v", sent)
	}
	req, err := msg.DecodeCreateProcess(sent.Body)
	if err != nil || req.Name != "hog" || len(req.Args) != 2 || req.Tag != 7 {
		t.Fatalf("create: %+v %v", req, err)
	}
	// Kernel's CreateDone reply flows back as an event.
	ctx.Push(proc.Delivery{Op: msg.OpCreateDone,
		Body: msg.CreateDone{PID: pid(9), Machine: 2, Tag: 7}.Encode()})
	step(t, m, ctx)
	if m.Locations[pid(9)] != 2 {
		t.Fatal("spawned pid not recorded")
	}
	sent, _ = ctx.LastSend()
	if ev, _ := procmgr.DecodeEvent(sent.Body); ev.What != "spawned" || ev.PID != pid(9) {
		t.Fatalf("event: %+v", ev)
	}
}

func TestLocate(t *testing.T) {
	m := procmgr.New(nil)
	m.Note(pid(5), 4)
	ctx := proctest.New()
	ctx.Push(proc.Delivery{Op: msg.OpLocate, From: addr.KernelAddr(3),
		Body: addr.EncodePID(nil, pid(5))})
	step(t, m, ctx)
	sent, ok := ctx.LastSend()
	if !ok || sent.Op != msg.OpLocateReply {
		t.Fatalf("locate: %+v", sent)
	}
	pm, err := msg.DecodePIDMachine(sent.Body)
	if err != nil || pm.Machine != 4 {
		t.Fatalf("reply: %+v %v", pm, err)
	}
}

func TestSelfMigrationHintHonored(t *testing.T) {
	m := procmgr.New(nil)
	m.Note(pid(2), 1)
	ctx := proctest.New()
	ctx.Push(proc.Delivery{Op: msg.OpMigrateRequest, From: addr.At(pid(2), 1),
		Body: msg.MigrateRequest{PID: pid(2), Dest: 3}.Encode()})
	step(t, m, ctx)
	sent, ok := ctx.LastSend()
	if !ok || sent.Op != msg.OpMigrateRequest {
		t.Fatalf("hint not honored: %+v", sent)
	}
}

func TestLoadReportDrivesPolicy(t *testing.T) {
	m := procmgr.New(policy.NewThreshold(80, 20, 1000))
	m.SetMachines([]addr.MachineID{1, 2})
	ctx := proctest.New()
	hot := msg.LoadReport{Machine: 1, CPUPercent: 95, Procs: []msg.ProcLoad{
		{PID: pid(1), CPUMicros: 90000},
		{PID: pid(2), CPUMicros: 90000},
	}}
	cold := msg.LoadReport{Machine: 2, CPUPercent: 1}
	// The policy runs when the round closes — i.e. when the highest
	// machine's report lands — over the full assembled view.
	ctx.Push(proc.Delivery{Op: msg.OpLoadReport, Body: hot.Encode()})
	step(t, m, ctx)
	if m.PolicySweeps != 0 || m.PolicyDecisions != 0 {
		t.Fatalf("decided on a half-assembled view: sweeps=%d decisions=%d",
			m.PolicySweeps, m.PolicyDecisions)
	}
	ctx.Push(proc.Delivery{Op: msg.OpLoadReport, Body: cold.Encode()})
	step(t, m, ctx)
	if m.PolicySweeps != 1 || m.PolicyDecisions != 1 {
		t.Fatalf("sweeps=%d decisions=%d", m.PolicySweeps, m.PolicyDecisions)
	}
	if len(m.DecisionTrace) != 1 {
		t.Fatalf("trace: %v", m.DecisionTrace)
	}
	sent, _ := ctx.LastSend()
	if sent.Op != msg.OpMigrateRequest {
		t.Fatalf("policy did not order a migration: %+v", sent)
	}
	if m.Locations[pid(1)] != 1 {
		t.Fatal("load report did not refresh locations")
	}
}

func TestStatText(t *testing.T) {
	m := procmgr.New(nil)
	m.Note(pid(1), 2)
	ctx := proctest.New()
	reply, _ := ctx.MintLink(link.Link{Attrs: link.AttrReply})
	ctx.PushBody(addr.KernelAddr(1), procmgr.CmdStat(), reply)
	step(t, m, ctx)
	sent, _ := ctx.LastSend()
	if !strings.Contains(string(sent.Body), "p2.1 @ m2") {
		t.Fatalf("stat: %q", sent.Body)
	}
}

func TestSnapshotRestoreKeepsLocations(t *testing.T) {
	m := procmgr.New(policy.NewThreshold(80, 20, 1000))
	m.Note(pid(1), 2)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2 := procmgr.New(nil)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m2.Locations[pid(1)] != 2 {
		t.Fatal("locations lost")
	}
	// Policy reattaches after restore.
	pol := policy.NewThreshold(80, 20, 1000)
	m2.SetPolicy(pol)
	if m2.Policy() != pol {
		t.Fatal("policy not reattached")
	}
}
