package proc

import (
	"fmt"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/dvm"
	"demosmp/internal/link"
	"demosmp/internal/memory"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// fakeCtx is a minimal Context for driving bodies without a kernel.
type fakeCtx struct {
	pid     addr.ProcessID
	machine addr.MachineID
	inbox   []Delivery
	sent    []struct {
		On   link.ID
		Body []byte
	}
	prints  []string
	nextLnk link.ID
	img     *memory.Image
	migrate []addr.MachineID
	d       Delivery // the one slot Recv returns, as in the kernel
}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{pid: addr.ProcessID{Creator: 2, Local: 9}, machine: 2,
		img: memory.NewImage(1024, nil)}
}

func (f *fakeCtx) PID() addr.ProcessID     { return f.pid }
func (f *fakeCtx) Machine() addr.MachineID { return f.machine }
func (f *fakeCtx) Now() sim.Time           { return 42 }
func (f *fakeCtx) Rand() uint32            { return 4 }

func (f *fakeCtx) Send(on link.ID, body []byte, carry ...link.ID) error {
	f.sent = append(f.sent, struct {
		On   link.ID
		Body []byte
	}{on, append([]byte(nil), body...)})
	return nil
}

func (f *fakeCtx) SendOp(on link.ID, op msg.Op, body []byte) error {
	return f.Send(on, body)
}

func (f *fakeCtx) Recv() (*Delivery, bool) {
	if len(f.inbox) == 0 {
		return nil, false
	}
	f.d = f.inbox[0]
	f.inbox = f.inbox[1:]
	return &f.d, true
}

func (f *fakeCtx) CreateLink(attrs link.Attr, area link.DataArea) (link.ID, error) {
	f.nextLnk++
	return f.nextLnk, nil
}
func (f *fakeCtx) DestroyLink(link.ID) error                      { return nil }
func (f *fakeCtx) LinkAddr(link.ID) (link.Link, bool)             { return link.Link{}, false }
func (f *fakeCtx) MintLink(link.Link) (link.ID, error)            { f.nextLnk++; return f.nextLnk, nil }
func (f *fakeCtx) MoveTo(link.ID, uint32, []byte, uint16) error   { return nil }
func (f *fakeCtx) MoveFrom(link.ID, uint32, uint32, uint16) error { return nil }
func (f *fakeCtx) ImageRead(off int, b []byte) error              { return f.img.ReadAt(b, off) }
func (f *fakeCtx) ImageWrite(off int, b []byte) error             { return f.img.WriteAt(b, off) }
func (f *fakeCtx) SetTimer(sim.Time, uint16)                      {}
func (f *fakeCtx) Print(b []byte)                                 { f.prints = append(f.prints, string(b)) }
func (f *fakeCtx) Logf(format string, args ...any)                { f.Print([]byte(fmt.Sprintf(format, args...))) }
func (f *fakeCtx) RequestMigration(m addr.MachineID) error {
	f.migrate = append(f.migrate, m)
	return nil
}

var _ Context = (*fakeCtx)(nil)

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	// VM kind is pre-registered.
	b, err := r.New(VMKind)
	if err != nil || b.Kind() != VMKind {
		t.Fatalf("VM kind: %v %v", b, err)
	}
	r.Register("x", func() Body { return &VMBody{} })
	if _, err := r.New("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.New("missing"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	kinds := r.Kinds()
	if len(kinds) != 2 || kinds[0] != VMKind {
		t.Fatalf("kinds: %v", kinds)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Register("x", func() Body { return &VMBody{} })
}

func TestVMBodyLifecycle(t *testing.T) {
	p := dvm.MustAssemble(`
	start:	movi r1, 21
		add r0, r1, r1
		sys exit
	`)
	img, err := p.BuildImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	b := NewVMBody(p.Entry)
	b.SetImage(img)
	ctx := newFakeCtx()
	_, st := b.Step(ctx, 1000)
	if st.State != Exited || st.ExitCode != 42 {
		t.Fatalf("status %+v", st)
	}
}

func TestVMBodyWithoutImageCrashes(t *testing.T) {
	b := NewVMBody(0)
	_, st := b.Step(newFakeCtx(), 10)
	if st.State != Crashed || st.Err == nil {
		t.Fatalf("status %+v", st)
	}
}

func TestVMBodySnapshotRestore(t *testing.T) {
	p := dvm.MustAssemble(`
	start:	movi r1, 0
	loop:	addi r1, r1, 1
		cmpi r1, 1000
		jlt loop
		mov r0, r1
		sys exit
	`)
	img, _ := p.BuildImage(nil)
	b := NewVMBody(p.Entry)
	b.SetImage(img)
	ctx := newFakeCtx()
	if _, st := b.Step(ctx, 100); st.State != Runnable {
		t.Fatalf("status %+v", st)
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Restore into a fresh body + the same image bytes.
	raw, _ := img.Bytes()
	img2 := memory.NewImage(len(raw), nil)
	img2.WriteAt(raw, 0)
	b2 := &VMBody{}
	if err := b2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	b2.SetImage(img2)
	if b2.CPU().Steps != b.CPU().Steps {
		t.Fatalf("steps diverged: %d vs %d", b2.CPU().Steps, b.CPU().Steps)
	}
	for i := 0; i < 100; i++ {
		if _, st := b2.Step(ctx, 1000); st.State == Exited {
			if st.ExitCode != 1000 {
				t.Fatalf("exit %d", st.ExitCode)
			}
			return
		}
	}
	t.Fatal("restored body never finished")
}

func TestVMBodyRestoreRejectsGarbage(t *testing.T) {
	b := &VMBody{}
	if err := b.Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("restored garbage")
	}
	good, _ := NewVMBody(0).Snapshot()
	if err := b.Restore(append(good, 0xFF)); err == nil {
		t.Fatal("restored oversized snapshot")
	}
}

func TestVMSyscallBridge(t *testing.T) {
	p := dvm.MustAssemble(`
		.data
	buf:	.space 32
		.code
	start:	sys getpid        ; r0=2 r1=9
		movi r0, 7        ; migrate to m7
		sys migrate
		lea r1, buf
		movi r2, 32
		sys recv          ; blocks first, then gets "hi"
		sys exit          ; exit = recv length
	`)
	img, _ := p.BuildImage(nil)
	b := NewVMBody(p.Entry)
	b.SetImage(img)
	ctx := newFakeCtx()
	_, st := b.Step(ctx, 1000)
	if st.State != Blocked {
		t.Fatalf("status %+v", st)
	}
	if len(ctx.migrate) != 1 || ctx.migrate[0] != 7 {
		t.Fatalf("migrate bridged wrong: %v", ctx.migrate)
	}
	ctx.inbox = append(ctx.inbox, Delivery{
		From:    addr.At(addr.ProcessID{Creator: 1, Local: 1}, 5),
		Body:    []byte("hi"),
		Carried: []link.ID{3},
	})
	_, st = b.Step(ctx, 1000)
	if st.State != Exited || st.ExitCode != 2 {
		t.Fatalf("after wake: %+v", st)
	}
	// The carried link id and sender machine were surfaced in registers.
	if b.CPU().R[3] != 3 || b.CPU().R[4] != 5 {
		t.Fatalf("regs: r3=%d r4=%d", b.CPU().R[3], b.CPU().R[4])
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{
		Runnable: "runnable", Blocked: "blocked", Exited: "exited", Crashed: "crashed",
	} {
		if st.String() != want {
			t.Errorf("%v", st)
		}
	}
}
