package kernel

// A migration's record has one store, the ledger: Reports reads it back,
// and the forwarding address the migration left keeps charging §4 forwards
// and §5 link updates to it. These tests pin what Reports returns once
// stale senders reach the forwarder, and that a forwarder absorbing them
// allocates nothing while its records are recycled.

import (
	"math"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
)

// tickSender sends one message on link 1 every period, timer-driven, so
// the sends allocate nothing.
type tickSender struct {
	period sim.Time
	armed  bool
	buf    [4]byte
}

func (s *tickSender) Kind() string { return "tick-sender" }

func (s *tickSender) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if !s.armed {
		s.armed = true
		ctx.SetTimer(s.period, 1)
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op == msg.OpTimer {
			if err := ctx.Send(1, s.buf[:]); err != nil {
				return 0, proc.Status{State: proc.Crashed, Err: err}
			}
			ctx.SetTimer(s.period, 1)
		}
	}
}

func (s *tickSender) Snapshot() ([]byte, error) { return nil, nil }
func (s *tickSender) Restore([]byte) error      { return nil }

// stillBody receives and keeps nothing.
type stillBody struct{}

func (b *stillBody) Kind() string { return "still" }

func (b *stillBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		if _, ok := ctx.Recv(); !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
	}
}

func (b *stillBody) Snapshot() ([]byte, error) { return nil, nil }
func (b *stillBody) Restore([]byte) error      { return nil }

// staleSendRig: a stateless target on m1 and, on m3, a sender holding a
// link to it that sends once every period. Each step migrates the target to
// the other of m1 and m2 and runs one period, in which the migration
// completes and then the sender's tick, addressed where the target was,
// passes the forwarding address the migration left and brings back the
// link update. The target's kind always instantiates the same body, so the
// arrival allocates no body either.
func staleSendRig(t *testing.T, led *obs.Ledger, onReport func(MigrationReport)) (ks []*Kernel, pid addr.ProcessID, step func()) {
	t.Helper()
	const period = 100_000
	eng := sim.NewEngine(5)
	nw := netw.New(eng, netw.Config{})
	target := &stillBody{}
	reg := proc.NewRegistry()
	reg.Register("still", func() proc.Body { return target })
	cfg := Config{Registry: reg, OnReport: onReport}
	for m := 1; m <= 3; m++ {
		ks = append(ks, New(addr.MachineID(m), eng, nw, cfg))
		if led != nil {
			ks[m-1].SetObs(nil, led)
		}
	}
	pid, err := ks[0].Spawn(SpawnSpec{Body: target})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks[2].Spawn(SpawnSpec{Body: &tickSender{period: period}, Links: []link.Link{{Addr: addr.At(pid, 1)}}}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(period / 2) // ticks now fall half a period into every step
	cur := 0
	return ks, pid, func() {
		ks[cur].RequestMigrationOf(addr.At(pid, ks[cur].machine), ks[1-cur].machine)
		eng.RunFor(period)
		cur = 1 - cur
	}
}

// TestReportsIncludeResidualAttribution pins what Reports returns: the
// ledger's record as it stands now, so the forwards and link updates the
// forwarding address absorbed after completion are in it — where
// OnReport's copy, taken at completion, has none — while every field fixed
// at completion reads the same in both. With a ledger attached, Reports
// and the ledger are one record; without one, the kernel keeps its own.
func TestReportsIncludeResidualAttribution(t *testing.T) {
	for _, arm := range []struct {
		name string
		led  *obs.Ledger
	}{{"bare kernels", nil}, {"ledger attached", obs.NewLedger()}} {
		t.Run(arm.name, func(t *testing.T) {
			var reps []MigrationReport
			ks, pid, step := staleSendRig(t, arm.led, func(r MigrationReport) { reps = append(reps, r) })
			step() // m1 -> m2, then one stale send through m1's forwarder
			if len(reps) != 1 {
				t.Fatalf("OnReport saw %d migrations, want 1", len(reps))
			}
			done := reps[0]
			got := ks[0].Reports()
			if len(got) != 1 {
				t.Fatalf("m1 Reports() = %+v, want one record", got)
			}
			live := got[0]
			if done.ForwardsAbsorbed != 0 || live.ForwardsAbsorbed != 1 || live.LinkUpdatesSent != 1 || live.ConvergenceForwards != 1 {
				t.Fatalf("residual fields: at completion %d/%d/%d, Reports %d/%d/%d; want 0/0/0 and 1/1/1",
					done.ForwardsAbsorbed, done.LinkUpdatesSent, done.ConvergenceForwards,
					live.ForwardsAbsorbed, live.LinkUpdatesSent, live.ConvergenceForwards)
			}
			final := live
			final.ForwardsAbsorbed, final.LinkUpdatesSent, final.ConvergenceForwards = 0, 0, 0
			if final != done || live.PID != pid || !live.OK {
				t.Fatalf("fields fixed at completion moved:\nReports  %+v\nOnReport %+v", live, done)
			}
			if arm.led != nil {
				if recs := arm.led.Records(); len(recs) != 1 || recs[0] != live {
					t.Fatalf("ledger holds %+v, Reports %+v", recs, live)
				}
			}
			if r := ks[1].Reports(); len(r) != 0 {
				t.Fatalf("m2 produced no migration but reports %+v", r)
			}
		})
	}
}

// TestForwarderRecyclingAllocs: a target bouncing between m1 and m2 leaves
// a forwarding address behind at every move, and the address it shadows on
// the way back leaves the table at step 8. In steady state a step (the whole
// migration, the stale send, the forward, the link update) allocates
// nothing: the table's entry is rewritten in place, the pid's sender table
// is emptied and reused rather than made per address, and the ledger stores
// records in chunks.
func TestForwarderRecyclingAllocs(t *testing.T) {
	ks, pid, step := staleSendRig(t, nil, nil)
	for i := 0; i < 8; i++ {
		step()
	}
	forwarded := func() (n uint64) {
		for _, k := range ks {
			n += k.Stats().Forwarded
		}
		return n
	}
	before := forwarded()
	if a := testing.AllocsPerRun(20, step); a != 0 {
		t.Fatalf("a step allocates %.1f times, want 0", a)
	}
	if n := forwarded() - before; n != 21 { // AllocsPerRun runs the step once more to warm up
		t.Fatalf("%d forwards in 21 steps, want one each", n)
	}
	k := ks[0]
	if k.lookup(pid) != nil {
		k = ks[1]
	}
	f, ok := k.fwdOf(pid)
	if !ok || len(k.coldRec.runs) != 1 || len(k.coldRec.runs[pid]) != 1 || k.led.At(f.rec).ConvergenceForwards != 1 {
		t.Fatalf("current forwarding address %+v (%v), runs %v", f, ok, k.coldRec.runs)
	}
}

// reportProbe keeps the last load report it receives.
type reportProbe struct {
	last msg.LoadReport
	n    int
}

func (b *reportProbe) Kind() string { return "report-probe" }

func (b *reportProbe) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if rep, err := msg.DecodeLoadReport(d.Body); d.Op == msg.OpLoadReport && err == nil {
			b.last, b.n = rep, b.n+1
		}
	}
}

func (b *reportProbe) Snapshot() ([]byte, error) { return nil, nil }
func (b *reportProbe) Restore([]byte) error      { return nil }

// TestLoadReportSaturates: a count past its report field's range reads as
// the field's maximum, not wrapped to a small one, so an overloaded machine
// cannot report itself almost idle. A process whose deltas since the last
// report exceed 2³² reports math.MaxUint32 for its CPU, its sends and its
// top peer's sends, and the top peer is still the one it sent most to.
func TestLoadReportSaturates(t *testing.T) {
	eng := sim.NewEngine(1)
	k := New(1, eng, netw.New(eng, netw.Config{}), Config{LoadReportEvery: 1_000_000})
	pm := &reportProbe{}
	pmPID, err := k.Spawn(SpawnSpec{Body: pm})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := k.Spawn(SpawnSpec{Body: &reportProbe{}})
	if err != nil {
		t.Fatal(err)
	}
	k.SetPMLink(link.Link{Addr: addr.At(pmPID, 1)})
	eng.RunFor(10_000) // both block in receive, before the first periodic report
	x := k.lookup(busy).ext
	const past = 1<<32 + 5 // wraps to 5 in a uint32
	x.cpuDelta, x.msgsDelta = past, past
	x.commDelta[2], x.commDelta[3] = 7, past
	k.sendLoadReport()
	eng.RunFor(10_000)
	if pm.n != 1 {
		t.Fatalf("the process manager got %d load reports, want 1", pm.n)
	}
	for _, pl := range pm.last.Procs {
		if pl.PID != busy {
			continue
		}
		if pl.CPUMicros != math.MaxUint32 || pl.MsgsOut != math.MaxUint32 || pl.TopPeer != 3 || pl.TopPeerMsgs != math.MaxUint32 {
			t.Fatalf("report for %v = %+v, want CPUMicros, MsgsOut and TopPeerMsgs %d on top peer m3", busy, pl, uint32(math.MaxUint32))
		}
		return
	}
	t.Fatalf("report %+v has no entry for %v", pm.last, busy)
}
