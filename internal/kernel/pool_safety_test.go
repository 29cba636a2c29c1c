package kernel

import (
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// These tests are the safety net under the envelope pool: a consumed
// envelope must land back on the free list of the pool that constructed it
// — after a local recycle and after a step-6 forward alike — and come out
// clean when that free list reissues it. They are in-package because the
// interesting moments — an envelope sitting on a process queue, the
// kernel's free list — are deliberately not part of the public API.

// poolDrainBody consumes everything; migratable.
type poolDrainBody struct {
	Got []string
}

func (b *poolDrainBody) Kind() string { return "pool-drain" }

func (b *poolDrainBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		b.Got = append(b.Got, string(d.Body))
	}
}

func (b *poolDrainBody) Snapshot() ([]byte, error) { return proc.Snapshot(b) }

func (b *poolDrainBody) Restore(data []byte) error { return proc.Restore(b, data) }

// poolSendOnceBody sends one message on link L, then blocks forever.
type poolSendOnceBody struct {
	L    link.ID
	Sent bool
}

func (b *poolSendOnceBody) Kind() string { return "pool-send-once" }

func (b *poolSendOnceBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if !b.Sent {
		b.Sent = true
		ctx.Send(b.L, []byte("pooled payload"))
	}
	return 0, proc.Status{State: proc.Blocked}
}

func (b *poolSendOnceBody) Snapshot() ([]byte, error) { return proc.Snapshot(b) }

func (b *poolSendOnceBody) Restore(data []byte) error { return proc.Restore(b, data) }

func poolTestCluster(t *testing.T, machines int) (*sim.Engine, []*Kernel) {
	t.Helper()
	eng := sim.NewEngine(5)
	nw := netw.New(eng, netw.Config{})
	tr := trace.New(eng.Now, 0)
	reg := proc.NewRegistry()
	reg.Register("pool-drain", func() proc.Body { return &poolDrainBody{} })
	cfg := Config{Tracer: tr, Registry: reg}
	for m := 1; m <= machines; m++ {
		cfg.Machines = append(cfg.Machines, addr.MachineID(m))
	}
	ks := make([]*Kernel, machines)
	for m := 1; m <= machines; m++ {
		ks[m-1] = New(addr.MachineID(m), eng, nw, cfg)
	}
	return eng, ks
}

// popAll empties a pool's free list, returning the envelopes in pop order.
func popAll(p *msg.Pool) []*msg.Message {
	out := make([]*msg.Message, 0, p.Free())
	for p.Free() > 0 {
		out = append(out, p.Get())
	}
	return out
}

// reclaim empties a pool's free list, reports whether m was on it, checks
// every envelope it reissues is clean, and puts them all back.
func reclaim(t *testing.T, p *msg.Pool, m *msg.Message) bool {
	t.Helper()
	frees := popAll(p)
	found := false
	for _, f := range frees {
		found = found || f == m
		if f.Kind != 0 || f.Op != 0 || !f.From.IsNil() || !f.To.IsNil() ||
			len(f.Body) != 0 || len(f.Links) != 0 || f.Orig != nil || f.SentAt != 0 {
			t.Errorf("reissued envelope is not clean: %v", f)
		}
	}
	for _, f := range frees {
		p.Put(f)
	}
	return found
}

// TestPoolEnvelopeRecycledAfterLocalConsume pins the core recycling
// guarantee: an envelope parked on a process queue comes from the kernel's
// pool, lands back on that pool's free list the moment the receiver
// consumes it, and comes out clean when the free list reissues it.
func TestPoolEnvelopeRecycledAfterLocalConsume(t *testing.T) {
	e, ks := poolTestCluster(t, 1)
	k := ks[0]
	recvB := &poolDrainBody{}
	rpid, err := k.Spawn(SpawnSpec{Body: recvB})
	if err != nil {
		t.Fatal(err)
	}
	sendB := &poolSendOnceBody{}
	spid, err := k.Spawn(SpawnSpec{Body: sendB})
	if err != nil {
		t.Fatal(err)
	}
	lid, err := k.MintLinkTo(link.Link{Addr: addr.At(rpid, 1)}, spid)
	if err != nil {
		t.Fatal(err)
	}
	sendB.L = lid

	// Step until the sent envelope is parked on the receiver's queue.
	rp := k.lookup(rpid)
	for rp.queue.Len() == 0 {
		if !e.Step() {
			t.Fatal("engine went idle before the message reached the receiver's queue")
		}
	}
	held := rp.queue.at(0)
	// If ctx.Send had quietly stopped using the pool, the envelope would be
	// a heap message that no release ever recycles.
	if !held.Pooled() {
		t.Fatal("queued envelope did not come from a pool")
	}

	e.Run()
	if len(recvB.Got) != 1 || recvB.Got[0] != "pooled payload" {
		t.Fatalf("receiver got %v", recvB.Got)
	}
	// The receiver consumed the message; runSlice released the envelope.
	if !reclaim(t, k.pool, held) {
		t.Fatal("released envelope never reached the kernel's free list")
	}
	if k.pool.News() != k.pool.Free() {
		t.Fatalf("pool holds %d envelopes of the %d it constructed", k.pool.Free(), k.pool.News())
	}
}

// TestPoolEnvelopeReturnsHomeAcrossMigrationForwarding sends a message that
// lands on a frozen in-migration queue. Step 6 forwards the envelope to the
// destination machine, whose kernel consumes it and releases it — and the
// release lands it back in the free list of the pool that constructed it,
// the source's: envelopes travel with the traffic but never change pools.
func TestPoolEnvelopeReturnsHomeAcrossMigrationForwarding(t *testing.T) {
	e, ks := poolTestCluster(t, 2)
	k1, k2 := ks[0], ks[1]
	body := &poolDrainBody{}
	pid, err := k1.Spawn(SpawnSpec{Body: body})
	if err != nil {
		t.Fatal(err)
	}
	e.Run() // let it block in receive

	k1.RequestMigrationOf(addr.At(pid, 1), 2)
	for k1.lookup(pid) == nil || k1.lookup(pid).state != StateInMigration {
		if !e.Step() {
			t.Fatal("engine went idle before the migration froze the process")
		}
	}

	// Inject a pooled user message at the source while the process is
	// frozen: it will be held on the queue, then forwarded in step 6.
	env := k1.getMsg()
	env.Kind = msg.KindUser
	env.From = addr.At(addr.ProcessID{Creator: 1, Local: 77}, 1)
	env.To = addr.At(pid, 1)
	env.Body = append(env.Body[:0], "held across migration"...)
	k1.route(env)

	e.Run()
	nb, ok := k2.BodyOf(pid)
	if !ok {
		t.Fatal("process never arrived on m2")
	}
	got := nb.(*poolDrainBody).Got
	if len(got) != 1 || got[0] != "held across migration" {
		t.Fatalf("forwarded message lost or duplicated: %v", got)
	}
	// The envelope was released by whoever consumed it, the destination,
	// and went home.
	if reclaim(t, k2.pool, env) {
		t.Fatal("forwarded envelope joined the destination's free list")
	}
	if !reclaim(t, k1.pool, env) {
		t.Fatal("forwarded envelope not back in the source kernel's free list")
	}
	for i, k := range ks {
		if k.pool.News() != k.pool.Free() {
			t.Fatalf("m%d pool holds %d envelopes of the %d it constructed", i+1, k.pool.Free(), k.pool.News())
		}
	}
}

// TestPoolDoubleReleasePanics pins the release-matrix discipline: every
// envelope has exactly one releasing site, and a second Put is a bug loud
// enough to fail a test run, not a silent free-list corruption.
func TestPoolDoubleReleasePanics(t *testing.T) {
	p := msg.NewPool()
	m := p.Get()
	p.Put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double release of a pooled envelope did not panic")
		}
	}()
	p.Put(m)
}

// TestReleasedEnvelopeResubmitPanics is the run-time half of use-after-Put:
// Put zeroes the envelope, so one routed after its release names no machine
// (To.LastKnown is 0) and netw.Send panics rather than send a blank frame.
// The ownership rule sees a use after Put only within one statement list; a
// release on some path, or behind a helper without //demos:releases, lands
// here instead.
func TestReleasedEnvelopeResubmitPanics(t *testing.T) {
	_, ks := poolTestCluster(t, 2)
	k := ks[0]
	m := k.getMsg()
	m.Kind = msg.KindUser
	m.To = addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2)
	k.putMsg(m)
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "no endpoint for machine") {
			t.Fatalf("routing a released envelope recovered %v, want netw's no-endpoint panic", r)
		}
	}()
	k.route(m)
}

// TestPoolHeapMessagePassesThrough: heap-constructed messages (tests,
// drivers, cold paths) flow through release sites as no-ops, so consumers
// never need to know a message's provenance.
func TestPoolHeapMessagePassesThrough(t *testing.T) {
	p := msg.NewPool()
	m := &msg.Message{Body: []byte("heap")}
	p.Put(m)
	p.Put(m) // and a second time: still a no-op, not a panic
	if p.Free() != 0 {
		t.Fatalf("heap message entered the free list (%d entries)", p.Free())
	}
	if string(m.Body) != "heap" {
		t.Fatalf("heap message mutated by Put: %q", m.Body)
	}
}
