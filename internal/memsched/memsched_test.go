package memsched_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/memsched"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/proctest"
)

func step(t *testing.T, s proc.Body, ctx *proctest.Ctx) {
	t.Helper()
	if _, st := s.Step(ctx, 1); st.State != proc.Blocked {
		t.Fatalf("memsched stopped: %+v", st)
	}
}

func report(m addr.MachineID, usedKB uint32) proc.Delivery {
	rep := msg.LoadReport{Machine: m, MemUsedKB: usedKB}
	return proc.Delivery{Op: msg.OpLoadReport, Body: rep.Encode()}
}

func TestBestFit(t *testing.T) {
	s := memsched.New()
	ctx := proctest.New()
	ctx.Push(report(1, 900))
	ctx.Push(report(2, 100))
	ctx.Push(report(3, 500))
	reply, _ := ctx.MintLink(link.Link{Attrs: link.AttrReply})
	ctx.PushBody(addr.ProcessAddr{}, memsched.BestFitMsg(64), reply)
	step(t, s, ctx)
	sent, ok := ctx.LastSend()
	if !ok {
		t.Fatal("no reply")
	}
	m, err := memsched.ParseBestFit(sent.Body)
	if err != nil || m != 2 {
		t.Fatalf("best fit = %v (%v), want m2", m, err)
	}
	if s.Queries != 1 {
		t.Fatalf("queries = %d", s.Queries)
	}
}

func TestReportsOverwrite(t *testing.T) {
	s := memsched.New()
	ctx := proctest.New()
	ctx.Push(report(1, 100))
	ctx.Push(report(2, 50))
	ctx.Push(report(1, 10)) // machine 1 freed memory
	reply, _ := ctx.MintLink(link.Link{Attrs: link.AttrReply})
	ctx.PushBody(addr.ProcessAddr{}, memsched.BestFitMsg(1), reply)
	step(t, s, ctx)
	sent, _ := ctx.LastSend()
	if m, _ := memsched.ParseBestFit(sent.Body); m != 1 {
		t.Fatalf("best fit = %v, want updated m1", m)
	}
}

func TestStat(t *testing.T) {
	s := memsched.New()
	ctx := proctest.New()
	ctx.Push(report(1, 100))
	reply, _ := ctx.MintLink(link.Link{Attrs: link.AttrReply})
	ctx.PushBody(addr.ProcessAddr{}, memsched.StatMsg(), reply)
	step(t, s, ctx)
	sent, _ := ctx.LastSend()
	if string(sent.Body) != "m1 mem=100KB\n" {
		t.Fatalf("stat: %q", sent.Body)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := memsched.New()
	ctx := proctest.New()
	ctx.Push(report(4, 77))
	step(t, s, ctx)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := memsched.New()
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if s2.UsedKB[4] != 77 {
		t.Fatalf("restored: %v", s2.UsedKB)
	}
}

func TestIgnoresGarbage(t *testing.T) {
	s := memsched.New()
	ctx := proctest.New()
	ctx.PushBody(addr.ProcessAddr{}, nil)
	ctx.PushBody(addr.ProcessAddr{}, memsched.BestFitMsg(1)) // no reply link
	ctx.Push(proc.Delivery{Op: msg.OpLoadReport, Body: []byte{1}})
	step(t, s, ctx)
	if len(ctx.Sends) != 0 {
		t.Fatal("garbage produced sends")
	}
}

// TestGobCodec holds the scheduler's Snapshot/Restore to
// proctest.CheckStateCodec, with gob as the reference for restored values.
func TestGobCodec(t *testing.T) {
	proctest.CheckStateCodec(t, func() proc.Body { return &memsched.Scheduler{} }, gobCopy,
		&memsched.Scheduler{},
		memsched.New(),
		&memsched.Scheduler{UsedKB: map[addr.MachineID]uint32{65535: 1<<32 - 1}, Queries: 1<<64 - 1},
		&memsched.Scheduler{UsedKB: map[addr.MachineID]uint32{1: 100, 2: 0, 3: 7}, Queries: 4},
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
