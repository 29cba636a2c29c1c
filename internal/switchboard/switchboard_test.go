package switchboard_test

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/proc"
	"demosmp/internal/proctest"
	"demosmp/internal/switchboard"
)

func step(t *testing.T, s proc.Body, ctx *proctest.Ctx) {
	t.Helper()
	if _, st := s.Step(ctx, 1); st.State != proc.Blocked {
		t.Fatalf("switchboard stopped: %+v", st)
	}
}

func client(l uint16) addr.ProcessAddr {
	return addr.At(addr.ProcessID{Creator: 2, Local: addr.LocalUID(l)}, 2)
}

func serviceLink(l uint16) link.Link {
	return link.Link{Addr: addr.At(addr.ProcessID{Creator: 3, Local: addr.LocalUID(l)}, 3)}
}

// install places a link in the fake table as if it had been carried in.
func install(ctx *proctest.Ctx, l link.Link) link.ID {
	id, _ := ctx.MintLink(l)
	return id
}

func TestRegisterAndLookup(t *testing.T) {
	s := switchboard.New()
	ctx := proctest.New()

	svc := install(ctx, serviceLink(7))
	ctx.PushBody(client(1), switchboard.RegisterMsg("fileserver"), svc)
	step(t, s, ctx)

	reply := install(ctx, link.Link{Addr: client(1), Attrs: link.AttrReply})
	ctx.PushBody(client(1), switchboard.LookupMsg("fileserver"), reply)
	step(t, s, ctx)

	sent, ok := ctx.LastSend()
	if !ok || sent.On != reply {
		t.Fatalf("no reply: %+v", sent)
	}
	good, _, err := switchboard.ParseReply(sent.Body)
	if err != nil || !good {
		t.Fatalf("reply: %v %v", sent.Body, err)
	}
	if len(sent.Carry) != 1 || sent.Carry[0] != svc {
		t.Fatalf("reply must carry the registered link: %+v", sent)
	}
}

func TestLookupMissing(t *testing.T) {
	s := switchboard.New()
	ctx := proctest.New()
	reply := install(ctx, link.Link{Addr: client(1), Attrs: link.AttrReply})
	ctx.PushBody(client(1), switchboard.LookupMsg("ghost"), reply)
	step(t, s, ctx)
	sent, _ := ctx.LastSend()
	good, _, _ := switchboard.ParseReply(sent.Body)
	if good {
		t.Fatal("lookup of missing name succeeded")
	}
}

func TestReRegisterReplaces(t *testing.T) {
	s := switchboard.New()
	ctx := proctest.New()
	old := install(ctx, serviceLink(1))
	neu := install(ctx, serviceLink(2))
	ctx.PushBody(client(1), switchboard.RegisterMsg("svc"), old)
	ctx.PushBody(client(1), switchboard.RegisterMsg("svc"), neu)
	step(t, s, ctx)
	if s.Names["svc"] != neu {
		t.Fatalf("name points at %v, want %v", s.Names["svc"], neu)
	}
	// The replaced link was destroyed.
	if _, ok := ctx.Links[old]; ok {
		t.Fatal("old link leaked")
	}
}

func TestList(t *testing.T) {
	s := switchboard.New()
	ctx := proctest.New()
	ctx.PushBody(client(1), switchboard.RegisterMsg("b"), install(ctx, serviceLink(1)))
	ctx.PushBody(client(1), switchboard.RegisterMsg("a"), install(ctx, serviceLink(2)))
	reply := install(ctx, link.Link{Addr: client(1), Attrs: link.AttrReply})
	ctx.PushBody(client(1), switchboard.ListMsg(), reply)
	step(t, s, ctx)
	sent, _ := ctx.LastSend()
	good, payload, _ := switchboard.ParseReply(sent.Body)
	if !good || string(payload) != "a\nb" {
		t.Fatalf("list: %q", payload)
	}
}

func TestGarbageIgnored(t *testing.T) {
	s := switchboard.New()
	ctx := proctest.New()
	ctx.PushBody(client(1), nil)
	ctx.PushBody(client(1), switchboard.RegisterMsg("")) // no name, no link
	ctx.PushBody(client(1), switchboard.LookupMsg("x"))  // no reply link
	step(t, s, ctx)
	if len(ctx.Sends) != 0 {
		t.Fatalf("garbage produced sends: %v", ctx.Sends)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := switchboard.New()
	ctx := proctest.New()
	ctx.PushBody(client(1), switchboard.RegisterMsg("pm"), install(ctx, serviceLink(1)))
	step(t, s, ctx)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := switchboard.New()
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if len(s2.Names) != 1 || s2.Names["pm"] == link.NilID {
		t.Fatalf("restored names: %v", s2.Names)
	}
	if !strings.Contains(s2.Kind(), "switchboard") {
		t.Fatal("kind")
	}
}

// TestGobCodec holds the switchboard's Snapshot/Restore to
// proctest.CheckStateCodec, with gob as the reference for restored values.
func TestGobCodec(t *testing.T) {
	proctest.CheckStateCodec(t, func() proc.Body { return &switchboard.Server{} }, gobCopy,
		&switchboard.Server{},
		switchboard.New(),
		&switchboard.Server{Names: map[string]link.ID{"": 65535}},
		&switchboard.Server{Names: map[string]link.ID{"fs": 3, "pm": 4, "a longer service name": 5}},
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
