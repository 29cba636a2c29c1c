package kernel

import (
	"bytes"
	"encoding/binary"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// A fired timer waits on its process's queue as the kernel's shared mark
// (msg.Pool.TimerMark), not as an envelope, when it matches the mark. These
// tests hold the invariant that makes that safe: a mark lives only in a
// queue, it leaves one only as an envelope (unmark) when the message moves
// on — step 6's resend and redeliver after a refused or aborted migration —
// and nothing writes it, the body that receives it included (Recv hands a
// timer's body no bytes).

const markTag = 0xbeef

// markGot is one delivery as a markBody saw it.
type markGot struct {
	Op   msg.Op
	Tag  uint16
	From addr.ProcessAddr
	Body []byte
}

// markBody arms one timer after 1 ms at its first step, tagged markTag
// unless Tag is set, and records every delivery; migratable.
type markBody struct {
	Tag   uint16
	Armed bool
	Got   []markGot
}

func (b *markBody) Kind() string { return "mark-probe" }

func (b *markBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if !b.Armed {
		b.Armed = true
		tag := b.Tag
		if tag == 0 {
			tag = markTag
		}
		ctx.SetTimer(1000, tag)
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		b.Got = append(b.Got, markGot{Op: d.Op, Tag: d.Xfer, From: d.From, Body: bytes.Clone(d.Body)})
	}
}

func (b *markBody) Snapshot() ([]byte, error) { return proc.Snapshot(b) }

func (b *markBody) Restore(data []byte) error { return proc.Restore(b, data) }

// markScene is two kernels and a markBody on m1, suspended, whose timer has
// fired and waits on its queue as m1's mark.
type markScene struct {
	eng    *sim.Engine
	k1, k2 *Kernel
	pid    addr.ProcessID
	marks  []*msg.Message
	copies []msg.Message // what each mark held when first seen
}

func newMarkScene(t *testing.T, mut func(*Config)) *markScene {
	t.Helper()
	eng := sim.NewEngine(3)
	nw := netw.New(eng, netw.Config{})
	reg := proc.NewRegistry()
	reg.Register("mark-probe", func() proc.Body { return &markBody{} })
	cfg := Config{Tracer: trace.New(eng.Now, 0), Registry: reg, Machines: []addr.MachineID{1, 2}}
	if mut != nil {
		mut(&cfg)
	}
	s := &markScene{eng: eng, k1: New(1, eng, nw, cfg), k2: New(2, eng, nw, cfg)}
	pid, err := s.k1.Spawn(SpawnSpec{Body: &markBody{}})
	if err != nil {
		t.Fatal(err)
	}
	s.pid = pid
	eng.RunUntil(500) // armed and waiting
	s.k1.GiveControl(pid, msg.OpSuspend, nil)
	eng.RunUntil(2000) // suspended; the timer fired at 1 ms
	s.queuedMark(t, s.k1)
	return s
}

// queuedMark checks that the pid's queue on k holds exactly its timer, as
// a mark of k's naming the timer's tag, and remembers the mark.
func (s *markScene) queuedMark(t *testing.T, k *Kernel) {
	t.Helper()
	p := k.lookup(s.pid)
	if p == nil || p.state != StateSuspended || p.queue.Len() != 1 {
		t.Fatalf("m%d: want %v suspended with its timer queued, got %+v", k.machine, s.pid, p)
	}
	m := p.queue.at(0)
	if !m.IsMark() || m.Pooled() || m.Kind != msg.KindControl || m.Op != msg.OpTimer ||
		len(m.Body) != 2 || binary.LittleEndian.Uint16(m.Body) != markTag {
		t.Fatalf("m%d: queued timer is not a mark of tag %#x: %v", k.machine, markTag, m)
	}
	s.marks = append(s.marks, m)
	c := *m
	c.Body = bytes.Clone(m.Body)
	s.copies = append(s.copies, c)
}

// resumeAndCheck resumes the process on k and checks that it receives its
// timer exactly once, from m1's kernel, with its tag and no body bytes (the
// mark's are shared, so a body never holds them); then that every mark
// seen is as it was made and both pools balance with nothing held.
func (s *markScene) resumeAndCheck(t *testing.T, k *Kernel) {
	t.Helper()
	k.GiveControl(s.pid, msg.OpResume, nil)
	s.eng.Run()
	b, ok := k.BodyOf(s.pid)
	if !ok {
		t.Fatalf("%v is not on m%d", s.pid, k.machine)
	}
	got := b.(*markBody).Got
	want := markGot{Op: msg.OpTimer, Tag: markTag, From: addr.KernelAddr(1)}
	if len(got) != 1 || got[0].Op != want.Op || got[0].Tag != want.Tag || got[0].From != want.From ||
		got[0].Body != nil {
		t.Fatalf("deliveries %+v, want the timer once: %+v", got, want)
	}
	s.checkMarks(t)
}

// checkMarks: no mark was written, and every pool balances with nothing
// held in a queue.
func (s *markScene) checkMarks(t *testing.T) {
	t.Helper()
	for i, m := range s.marks {
		c := s.copies[i]
		if m.Kind != c.Kind || m.Op != c.Op || m.From != c.From || m.To != c.To || m.DTK != c.DTK ||
			!bytes.Equal(m.Body, c.Body) || m.Links != nil || m.SentAt != c.SentAt ||
			m.Forwards != c.Forwards || m.Hops != c.Hops || m.Searched != c.Searched ||
			m.Orig != nil || !m.IsMark() || m.Pooled() {
			t.Errorf("mark %d was written: %v body %x, made as %v body %x", i, m, m.Body, &c, c.Body)
		}
	}
	for _, k := range []*Kernel{s.k1, s.k2} {
		if news, free, held := k.PoolStats(); news != free || held != 0 {
			t.Errorf("m%d pool: %d made, %d free, %d held; want all free", k.machine, news, free, held)
		}
	}
}

// TestQueuedTimerCrossesStep6AsEnvelope: a timer queued before the freeze
// is resent by step 6 as an envelope addressed to the process, held on the
// destination until step 8, and waits there as the destination's mark; the
// process receives it once, with its tag and sender, on m2.
func TestQueuedTimerCrossesStep6AsEnvelope(t *testing.T) {
	s := newMarkScene(t, nil)
	s.k1.RequestMigrationOf(addr.At(s.pid, 1), 2)
	s.eng.Run()
	if st := s.k1.Stats(); st.MigrationsOut != 1 || st.ForwardedPending != 1 {
		t.Fatalf("m1: %d migrations out, %d pending messages resent; want 1 and 1", st.MigrationsOut, st.ForwardedPending)
	}
	s.queuedMark(t, s.k2)
	s.resumeAndCheck(t, s.k2)
}

// TestRefusedMigrationRedeliversQueuedTimerOnce: the destination refuses,
// the source restarts the process and redelivers its queue; the queued
// timer comes back once, as a mark again.
func TestRefusedMigrationRedeliversQueuedTimerOnce(t *testing.T) {
	s := newMarkScene(t, nil)
	s.k2.SetAccept(func(msg.MigrateAsk, int) bool { return false })
	s.k1.RequestMigrationOf(addr.At(s.pid, 1), 2)
	s.eng.Run()
	if st := s.k2.Stats(); st.MigrationsRefused != 1 {
		t.Fatalf("m2 refused %d migrations, want 1", st.MigrationsRefused)
	}
	s.queuedMark(t, s.k1)
	s.resumeAndCheck(t, s.k1)
}

// TestAbortedMigrationRedeliversQueuedTimerOnce: the destination is down,
// the source's watchdog aborts, and the queued timer is redelivered once.
func TestAbortedMigrationRedeliversQueuedTimerOnce(t *testing.T) {
	s := newMarkScene(t, func(cfg *Config) { cfg.MigrateTimeout = 300_000 })
	s.k2.Crash()
	s.k1.RequestMigrationOf(addr.At(s.pid, 1), 2)
	s.eng.Run()
	if st := s.k1.Stats(); st.MigrationsFailed != 1 {
		t.Fatalf("m1: %d failed migrations, want 1", st.MigrationsFailed)
	}
	s.queuedMark(t, s.k1)
	s.resumeAndCheck(t, s.k1)
}

// TestCrashWipeCountsQueuedTimer: a crash wipes the queued timer and counts
// it in CrashWipedMsgs like any queued message.
func TestCrashWipeCountsQueuedTimer(t *testing.T) {
	s := newMarkScene(t, nil)
	s.k1.Crash()
	if err := s.k1.Restart(); err != nil {
		t.Fatal(err)
	}
	s.eng.Run()
	if st := s.k1.Stats(); st.CrashWipedMsgs != 1 || st.CrashLostProcs != 1 {
		t.Fatalf("m1: %d messages and %d processes wiped, want 1 and 1", st.CrashWipedMsgs, st.CrashLostProcs)
	}
	s.checkMarks(t)
}

// TestUnmatchedTimerWaitsAsEnvelope: a kernel makes one mark, from the first
// timer it queues. A timer with another tag waits as its own envelope, as
// every timer did before marks, and reaches its body with its own tag; the
// mark is not replaced, so no timer makes a second one.
func TestUnmatchedTimerWaitsAsEnvelope(t *testing.T) {
	s := newMarkScene(t, nil)
	pid, err := s.k1.Spawn(SpawnSpec{Body: &markBody{Tag: 7}})
	if err != nil {
		t.Fatal(err)
	}
	s.eng.RunUntil(2500) // armed and waiting
	s.k1.GiveControl(pid, msg.OpSuspend, nil)
	s.eng.RunUntil(4000) // suspended; its timer has fired
	p := s.k1.lookup(pid)
	if p == nil || p.queue.Len() != 1 {
		t.Fatalf("want %v with its timer queued, got %+v", pid, p)
	}
	if m := p.queue.at(0); m.IsMark() || !m.Pooled() || binary.LittleEndian.Uint16(m.Body) != 7 {
		t.Fatalf("a timer of tag 7 waits as %v (mark %v), want its own envelope", m, m.IsMark())
	}
	if news, free, held := s.k1.PoolStats(); held != 1 || news != free+held {
		t.Fatalf("m1 pool: %d made, %d free, %d held; want the one envelope held", news, free, held)
	}
	s.k1.GiveControl(pid, msg.OpResume, nil)
	s.resumeAndCheck(t, s.k1)
	b, _ := s.k1.BodyOf(pid)
	if got := b.(*markBody).Got; len(got) != 1 || got[0].Op != msg.OpTimer || got[0].Tag != 7 ||
		got[0].From != addr.KernelAddr(1) || got[0].Body != nil {
		t.Fatalf("deliveries %+v, want the tag-7 timer once", got)
	}
}
