package kernel

import (
	"bytes"
	"encoding/gob"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// These tests are the safety net under the envelope pool: a holder that
// keeps a *msg.Message past its release must be able to detect the
// recycling through a generation-stamped Ref instead of silently reading
// another message's fields. They are in-package because the interesting
// moments — an envelope sitting on a process queue, the kernel's free
// list — are deliberately not part of the public API.

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

func (b *poolDrainBody) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(b)
	return buf.Bytes(), err
}

func (b *poolDrainBody) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(b)
}

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

func (b *poolSendOnceBody) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(b)
	return buf.Bytes(), err
}

func (b *poolSendOnceBody) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(b)
}

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

// TestPoolRefGoesStaleAfterLocalRecycle pins the core aliasing guarantee:
// a Ref taken while a pooled envelope sits on a process queue goes stale
// the moment the receiver consumes it and the kernel releases the envelope
// — and stays stale when the free list reissues that envelope.
func TestPoolRefGoesStaleAfterLocalRecycle(t *testing.T) {
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
	ref := msg.MakeRef(held)
	if !ref.Valid() {
		t.Fatal("fresh ref over a queued envelope must be valid")
	}

	e.Run()
	if len(recvB.Got) != 1 || recvB.Got[0] != "pooled payload" {
		t.Fatalf("receiver got %v", recvB.Got)
	}
	// The receiver consumed the message; runSlice released the envelope.
	// If ctx.Send had quietly stopped using the pool this would fail too:
	// a heap envelope is never released, so its ref would stay valid.
	if ref.Valid() {
		t.Fatal("ref survived the envelope's release — generation not bumped")
	}

	// Reissue the envelope and check the stale ref does not come back to
	// life: the generation moved on with the release.
	frees := popAll(k.pool)
	reissued := false
	for _, m := range frees {
		if m == held {
			reissued = true
		}
	}
	if !reissued {
		t.Fatal("released envelope never reached the kernel's free list")
	}
	if ref.Valid() {
		t.Fatal("stale ref became valid again after reissue")
	}
	for _, m := range frees {
		k.pool.Put(m)
	}
}

// TestPoolRefAcrossMigrationForwarding holds a Ref to a message that lands
// on a frozen in-migration queue. Step 6 forwards the envelope to the
// destination machine, whose kernel consumes it and releases it — and the
// release lands it back in the free list of the pool that constructed it,
// the source's: envelopes travel with the traffic but never change pools.
// The source-side holder's Ref must read as stale afterwards.
func TestPoolRefAcrossMigrationForwarding(t *testing.T) {
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
	ref := msg.MakeRef(env)
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
	if ref.Valid() {
		t.Fatal("ref survived the forwarded envelope's release on the destination")
	}
	// The envelope was released by whoever consumed it, the destination,
	// and went home.
	if k2.pool.News() != k2.pool.Free() {
		t.Fatalf("destination pool holds %d envelopes of the %d it constructed", k2.pool.Free(), k2.pool.News())
	}
	frees := popAll(k1.pool)
	landed := false
	for _, m := range frees {
		if m == ref.M {
			landed = true
		}
	}
	if !landed {
		t.Fatal("forwarded envelope not back in the source kernel's free list")
	}
	for _, m := range frees {
		k1.pool.Put(m)
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
