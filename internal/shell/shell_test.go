package shell_test

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/proc"
	"demosmp/internal/procmgr"
	"demosmp/internal/proctest"
	"demosmp/internal/shell"
)

func newShellCtx() (*shell.Shell, *proctest.Ctx) {
	s := shell.New()
	ctx := proctest.New()
	// Slots 1 and 2: switchboard and PM.
	ctx.MintLink(link.Link{Addr: addr.At(addr.ProcessID{Creator: 1, Local: 1}, 1)})
	ctx.MintLink(link.Link{Addr: addr.At(addr.ProcessID{Creator: 1, Local: 2}, 1)})
	return s, ctx
}

func step(t *testing.T, s proc.Body, ctx *proctest.Ctx) {
	t.Helper()
	if _, st := s.Step(ctx, 1); st.State != proc.Blocked {
		t.Fatalf("shell stopped: %+v", st)
	}
}

func cmd(ctx *proctest.Ctx, line string) {
	ctx.PushBody(addr.ProcessAddr{}, shell.CommandMsg(line))
}

func lastPrint(ctx *proctest.Ctx) string {
	if len(ctx.Prints) == 0 {
		return ""
	}
	return ctx.Prints[len(ctx.Prints)-1]
}

func TestHelpAndWhoami(t *testing.T) {
	s, ctx := newShellCtx()
	cmd(ctx, "help")
	cmd(ctx, "whoami")
	step(t, s, ctx)
	if !strings.Contains(ctx.Prints[0], "commands:") {
		t.Fatalf("help: %q", ctx.Prints)
	}
	if !strings.Contains(ctx.Prints[1], "p1.50 on m1") {
		t.Fatalf("whoami: %q", ctx.Prints[1])
	}
}

func TestRunSendsSpawnToPM(t *testing.T) {
	s, ctx := newShellCtx()
	cmd(ctx, "run 3 hog fast")
	step(t, s, ctx)
	sent, ok := ctx.LastSend()
	if !ok || sent.On != 2 {
		t.Fatalf("spawn went to %v: %+v", sent.On, sent)
	}
	if sent.Body[0] != 'S' {
		t.Fatalf("not a spawn command: %q", sent.Body)
	}
}

func TestMigrateCommandEncoding(t *testing.T) {
	s, ctx := newShellCtx()
	cmd(ctx, "migrate p2.7 3")
	step(t, s, ctx)
	sent, ok := ctx.LastSend()
	if !ok || sent.On != 2 {
		t.Fatalf("migrate: %+v", sent)
	}
	want := procmgr.CmdMigrate(addr.ProcessID{Creator: 2, Local: 7}, 3)
	if string(sent.Body) != string(want) {
		t.Fatalf("encoded %x, want %x", sent.Body, want)
	}
}

func TestBadCommands(t *testing.T) {
	s, ctx := newShellCtx()
	for _, line := range []string{"migrate nope 3", "migrate p1.1 x", "run x cpu", "frobnicate", "run"} {
		cmd(ctx, line)
	}
	step(t, s, ctx)
	if len(ctx.Sends) != 0 {
		t.Fatalf("bad commands sent messages: %v", ctx.Sends)
	}
	if len(ctx.Prints) != 5 {
		t.Fatalf("prints: %q", ctx.Prints)
	}
}

func TestEventRelay(t *testing.T) {
	s, ctx := newShellCtx()
	ev := procmgr.EncodeEvent(procmgr.Event{
		What: "migrated", PID: addr.ProcessID{Creator: 2, Local: 9}, Machine: 3,
	})
	ctx.PushBody(addr.ProcessAddr{}, ev)
	step(t, s, ctx)
	if !strings.Contains(lastPrint(ctx), "migrated: p2.9 @ m3") {
		t.Fatalf("event: %q", ctx.Prints)
	}
}

func TestReplyLinkGetsOutput(t *testing.T) {
	s, ctx := newShellCtx()
	reply, _ := ctx.MintLink(link.Link{Attrs: link.AttrReply})
	ctx.PushBody(addr.ProcessAddr{}, shell.CommandMsg("help"), reply)
	step(t, s, ctx)
	sent, ok := ctx.LastSend()
	if !ok || sent.On != reply || !strings.Contains(string(sent.Body), "commands:") {
		t.Fatalf("reply output: %+v", sent)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s, ctx := newShellCtx()
	cmd(ctx, "help")
	step(t, s, ctx)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := shell.New()
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if len(s2.History) != 1 || s2.History[0] != "help" {
		t.Fatalf("history: %v", s2.History)
	}
}

// TestGobCodec holds the shell's Snapshot/Restore to
// proctest.CheckStateCodec, with gob as the reference for restored values.
func TestGobCodec(t *testing.T) {
	proctest.CheckStateCodec(t, func() proc.Body { return &shell.Shell{} }, gobCopy,
		&shell.Shell{},
		shell.New(),
		&shell.Shell{SwbLink: 1, PMLink: 2, NextTag: 65535, Out: 9, History: []string{"ps", "", "migrate p1.3 m2"}},
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
