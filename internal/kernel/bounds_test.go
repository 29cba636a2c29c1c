package kernel_test

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/obs"
	"demosmp/internal/proc"
)

// These tests pin the hard caps on the kernel's per-PID buffers. Like
// TestDedupStateBounded in internal/netw, each drives the buffer with far
// more traffic than the bound allows and asserts two things at once: the
// observable behavior stays correct, and kernel memory stops growing at the
// cap (with the overflow counted, not silent).

// TestPendingLocateBounded: in return-to-sender mode a bounced message is
// held while the kernel asks the process manager where the ghost went. A PM
// that never answers must not let that holding area grow without limit —
// beyond PendingLocateCap the kernel dead-letters instead of holding.
func TestPendingLocateBounded(t *testing.T) {
	const extra = 10
	c := newTC(t, 2, func(cfg *kernel.Config) {
		cfg.Mode = kernel.ModeReturnToSender
	})
	// The "process manager" is a blackhole: it consumes every OpLocate
	// and never replies, so held messages can only pile up.
	pm, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}})
	if err != nil {
		t.Fatal(err)
	}
	c.k(1).SetPMLink(link.Link{Addr: addr.At(pm, 1)})
	sender, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}})
	if err != nil {
		t.Fatal(err)
	}

	ghost := addr.ProcessID{Creator: 2, Local: 9999} // never existed anywhere
	for i := 0; i < kernel.PendingLocateCap+extra; i++ {
		c.k(1).GiveMessageTo(addr.At(ghost, 2), addr.At(sender, 1), []byte("lost"))
	}
	c.run()

	s1 := c.k(1).Stats()
	s2 := c.k(2).Stats()
	if want := uint64(kernel.PendingLocateCap + extra); s2.Bounced != want {
		t.Fatalf("m2 bounced %d messages, want %d", s2.Bounced, want)
	}
	// One locate query is outstanding for the whole pile-up.
	if s1.LocateRequests != 1 {
		t.Fatalf("locate requests = %d, want 1 (coalesced per PID)", s1.LocateRequests)
	}
	// The first PendingLocateCap bounces are held awaiting the reply; every
	// bounce past the cap is dropped and accounted.
	if s1.LocateDropped != extra {
		t.Fatalf("LocateDropped = %d, want %d", s1.LocateDropped, extra)
	}
	if s1.DeadLetters < extra {
		t.Fatalf("DeadLetters = %d, want >= %d (each drop is a dead letter)", s1.DeadLetters, extra)
	}

	// The same counters must surface through the obs registry — capped
	// buffer overflow is part of the exported snapshot, never silent. The
	// samplers read the kernel's live stats, so attaching after the run
	// still sees everything.
	reg := obs.NewRegistry()
	c.k(1).SetObs(reg, nil)
	snap := reg.Snapshot(0)
	if v := snap.Value("kernel.m1.locate_dropped"); v != extra {
		t.Fatalf("obs locate_dropped = %d, want %d", v, extra)
	}
	if v := snap.Value("kernel.m1.dead_letters"); v != s1.DeadLetters {
		t.Fatalf("obs dead_letters = %d, stats say %d", v, s1.DeadLetters)
	}
	if m, ok := snap.Get("kernel.m1.console_dropped"); !ok || m.Value != 0 {
		t.Fatalf("obs console_dropped missing or nonzero: %+v", m)
	}
}

// chattyBody prints more console lines than the cap allows in one slice.
type chattyBody struct {
	Lines int
}

func (b *chattyBody) Kind() string { return "chatty" }

func (b *chattyBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for i := 0; i < b.Lines; i++ {
		ctx.Print([]byte("line\n"))
	}
	return 0, proc.Status{State: proc.Exited}
}

func (b *chattyBody) Snapshot() ([]byte, error) { return proc.Snapshot(b) }

func (b *chattyBody) Restore(data []byte) error { return proc.Restore(b, data) }

// TestConsoleBounded: a process that prints without limit keeps only the
// first ConsoleLineCap lines; the rest are counted as dropped.
func TestConsoleBounded(t *testing.T) {
	const extra = 50
	c := newTC(t, 1, nil)
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &chattyBody{Lines: kernel.ConsoleLineCap + extra}})
	if err != nil {
		t.Fatal(err)
	}
	c.run()

	if got := len(c.k(1).Console(pid)); got != kernel.ConsoleLineCap {
		t.Fatalf("console kept %d lines, want exactly %d", got, kernel.ConsoleLineCap)
	}
	if s := c.k(1).Stats(); s.ConsoleDropped != extra {
		t.Fatalf("ConsoleDropped = %d, want %d", s.ConsoleDropped, extra)
	}

	// And through the registry snapshot.
	reg := obs.NewRegistry()
	c.k(1).SetObs(reg, nil)
	if v := reg.Snapshot(0).Value("kernel.m1.console_dropped"); v != extra {
		t.Fatalf("obs console_dropped = %d, want %d", v, extra)
	}
}
