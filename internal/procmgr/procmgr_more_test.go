package procmgr_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/memsched"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/procmgr"
	"demosmp/internal/proctest"
)

func TestSignalCommands(t *testing.T) {
	for sig, op := range map[byte]msg.Op{
		procmgr.SigSuspend: msg.OpSuspend,
		procmgr.SigResume:  msg.OpResume,
		procmgr.SigKill:    msg.OpKill,
	} {
		m := procmgr.New(nil)
		m.Note(pid(4), 2)
		ctx := proctest.New()
		reply, _ := ctx.MintLink(link.Link{Attrs: link.AttrReply})
		ctx.PushBody(addr.KernelAddr(1), procmgr.CmdSignal(pid(4), sig), reply)
		step(t, m, ctx)
		if len(ctx.Sends) != 2 {
			t.Fatalf("sig %c: sends %v", sig, ctx.Sends)
		}
		if ctx.Sends[0].Op != op {
			t.Fatalf("sig %c sent op %v", sig, ctx.Sends[0].Op)
		}
		if ev, err := procmgr.DecodeEvent(ctx.Sends[1].Body); err != nil || ev.What != "signalled" {
			t.Fatalf("sig %c event: %+v %v", sig, ev, err)
		}
	}
}

func TestSignalUnknownOrGarbage(t *testing.T) {
	m := procmgr.New(nil)
	ctx := proctest.New()
	ctx.PushBody(addr.KernelAddr(1), procmgr.CmdSignal(pid(1), 'z')) // bad signal
	ctx.PushBody(addr.KernelAddr(1), []byte{'K', 1})                 // truncated
	step(t, m, ctx)
	if len(ctx.Sends) != 0 {
		t.Fatalf("garbage signalled: %v", ctx.Sends)
	}
}

func TestEvictTriesCandidatesInOrder(t *testing.T) {
	m := procmgr.New(nil)
	m.SetMachines([]addr.MachineID{1, 2, 3})
	m.Note(pid(1), 1)
	ctx := proctest.New()
	ctx.PushBody(addr.KernelAddr(1), procmgr.CmdEvict(pid(1)))
	step(t, m, ctx)
	req, err := msg.DecodeMigrateRequest(lastOpBody(t, ctx, msg.OpMigrateRequest))
	if err != nil || req.Dest != 2 {
		t.Fatalf("first candidate: %+v %v", req, err)
	}
	// m2 refuses; the PM must try m3.
	ctx.Push(proc.Delivery{Op: msg.OpMigrateDone,
		Body: msg.MigrateDone{PID: pid(1), Machine: 2, OK: false}.Encode()})
	step(t, m, ctx)
	req, err = msg.DecodeMigrateRequest(lastOpBody(t, ctx, msg.OpMigrateRequest))
	if err != nil || req.Dest != 3 {
		t.Fatalf("second candidate: %+v %v", req, err)
	}
	// m3 accepts; eviction bookkeeping clears.
	ctx.Push(proc.Delivery{Op: msg.OpMigrateDone,
		Body: msg.MigrateDone{PID: pid(1), Machine: 3, OK: true}.Encode()})
	step(t, m, ctx)
	if len(m.Evicting) != 0 {
		t.Fatalf("eviction state leaked: %v", m.Evicting)
	}
	if m.Locations[pid(1)] != 3 {
		t.Fatalf("location: %v", m.Locations[pid(1)])
	}
}

func TestEvictExhaustsCandidates(t *testing.T) {
	m := procmgr.New(nil)
	m.SetMachines([]addr.MachineID{1, 2})
	m.Note(pid(1), 1)
	ctx := proctest.New()
	ctx.PushBody(addr.KernelAddr(1), procmgr.CmdEvict(pid(1)))
	ctx.Push(proc.Delivery{Op: msg.OpMigrateDone,
		Body: msg.MigrateDone{PID: pid(1), Machine: 2, OK: false}.Encode()})
	step(t, m, ctx)
	if len(m.Evicting) != 0 {
		t.Fatalf("exhausted eviction kept state: %v", m.Evicting)
	}
	// Only one request was ever sent.
	n := 0
	for _, s := range ctx.Sends {
		if s.Op == msg.OpMigrateRequest {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("requests = %d", n)
	}
}

func TestSpawnAnywhereViaMemSched(t *testing.T) {
	m := procmgr.New(nil)
	ctx := proctest.New()
	memschedPID := addr.ProcessID{Creator: 1, Local: 33}
	msLink, _ := ctx.MintLink(link.Link{Addr: addr.At(memschedPID, 1)})
	m.MemSchedLink = msLink

	ctx.PushBody(addr.KernelAddr(1), procmgr.CmdSpawn(procmgr.AnyMachine, 3, "hog"))
	step(t, m, ctx)
	// A best-fit query went to the scheduler, not a create yet.
	last, _ := ctx.LastSend()
	if last.On != msLink || last.Body[0] != 'B' {
		t.Fatalf("expected best-fit query, got %+v", last)
	}
	if len(m.PendingPlace) != 1 {
		t.Fatalf("pending: %v", m.PendingPlace)
	}
	// The scheduler answers m2 — from the memsched identity.
	reply := memsched.BestFitMsg(0) // build a 2-byte machine reply manually:
	_ = reply
	ctx.Push(proc.Delivery{From: addr.At(memschedPID, 1), Body: []byte{2, 0}})
	step(t, m, ctx)
	last, _ = ctx.LastSend()
	if last.Op != msg.OpCreateProcess {
		t.Fatalf("expected create, got %+v", last)
	}
	req, _ := msg.DecodeCreateProcess(last.Body)
	if req.Name != "hog" || req.Tag != 3 {
		t.Fatalf("create: %+v", req)
	}
	// The create link pointed at kernel m2: it was destroyed after use,
	// so verify via the placement queue being drained instead.
	if len(m.PendingPlace) != 0 {
		t.Fatal("pending placement not drained")
	}
}

func TestKindAndMachines(t *testing.T) {
	m := procmgr.New(nil)
	if m.Kind() != procmgr.Kind {
		t.Fatal("kind")
	}
	m.SetMachines([]addr.MachineID{1, 2})
	if len(m.Machines) != 2 {
		t.Fatal("machines")
	}
}

func lastOpBody(t *testing.T, ctx *proctest.Ctx, op msg.Op) []byte {
	t.Helper()
	for i := len(ctx.Sends) - 1; i >= 0; i-- {
		if ctx.Sends[i].Op == op {
			return ctx.Sends[i].Body
		}
	}
	t.Fatalf("no send with op %v", op)
	return nil
}

// TestGobCodec holds the process manager's Snapshot/Restore to
// proctest.CheckStateCodec, with gob as the reference for restored values.
// Its policy and collector are unexported and stay behind: a restored
// manager has none.
func TestGobCodec(t *testing.T) {
	p3 := addr.ProcessID{Creator: 1, Local: 3}
	proctest.CheckStateCodec(t, func() proc.Body { return &procmgr.Manager{} }, gobCopy,
		&procmgr.Manager{},
		procmgr.New(nil),
		&procmgr.Manager{
			Locations:         map[addr.ProcessID]addr.MachineID{p3: 2},
			Loads:             map[addr.MachineID]msg.LoadReport{2: {Machine: 2, Ready: 1, ProcCount: 4, MemUsedKB: 1 << 31, CPUPercent: 100, Procs: []msg.ProcLoad{{PID: p3, CPUMicros: 9, MemKB: 64, MsgsOut: 3, TopPeer: 1, TopPeerMsgs: 2}, {}}}},
			MemSchedLink:      5,
			Inflight:          map[addr.ProcessID]link.ID{p3: 7},
			SpawnReply:        map[uint16]link.ID{65535: 8},
			PendingPlace:      []procmgr.PendingSpawn{{Tag: 1, Name: "cpu", Args: []string{"-n", ""}}, {}},
			Evicting:          map[addr.ProcessID][]addr.MachineID{p3: {4, 5}},
			Machines:          []addr.MachineID{1, 2, 3},
			MigrationsOrdered: 1 << 63, PolicyDecisions: 2, PolicySweeps: 3, CollectMaxAge: 1 << 40,
			DecisionTrace: []string{"100 threshold p1.3 m1->m2 load", ""},
		},
		&procmgr.Manager{
			Locations: map[addr.ProcessID]addr.MachineID{p3: 2, {Creator: 2, Local: 1}: 2, {Creator: 9, Local: 9}: 1},
			Loads:     map[addr.MachineID]msg.LoadReport{1: {Machine: 1}, 2: {Machine: 2, Ready: 3}},
		},
	)
}

// gobCopy copies src into dst through a fresh gob encoder and decoder: the
// reference for what Restore leaves in a new body.
func gobCopy(dst, src proc.Body) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(src); err != nil {
		return err
	}
	return gob.NewDecoder(&buf).Decode(dst)
}
