package kernel

// The spawn path recycles: Spawn draws its Process record (with the queue
// ring and emptied link table it kept) from the free list terminate returns
// it to, a process gets a link table only at its first link, locally created
// pids live in a dense table (one slot per UID for the record and its exit),
// and the local UID counter wraps. These tests pin what must survive all
// that: a recycled record carries nothing of the dead process, the split
// tables answer the way the single map did, and no pid is issued twice among
// the living.
// In-package because the interesting facts — which record a spawn got,
// what sits on the run queue — are not part of the public API.

import (
	"errors"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/memory"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/workload"
)

// scriptBody runs a fixed number of slices and then ends the way it is told
// to; until then it is always runnable, so it sits on the run queue between
// its slices.
type scriptBody struct {
	slices int   // slices to run before ending; < 0 spins forever
	crash  error // end by crashing with this error instead of exiting
	seen   int   // messages received
	ran    int
}

func (b *scriptBody) Kind() string { return "script" }

func (b *scriptBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		if _, ok := ctx.Recv(); !ok {
			break
		}
		b.seen++
	}
	b.ran++
	switch {
	case b.slices < 0 || b.ran < b.slices:
		return 0, proc.Status{State: proc.Runnable}
	case b.crash != nil:
		return 0, proc.Status{State: proc.Crashed, Err: b.crash}
	default:
		return 0, proc.Status{State: proc.Exited, ExitCode: 7}
	}
}

func (b *scriptBody) Snapshot() ([]byte, error) { return nil, nil }
func (b *scriptBody) Restore([]byte) error      { return nil }

// extIsEmpty reports whether a record's side record (if any) holds nothing
// of a past holder; its maps may survive, emptied.
func extIsEmpty(x *procExt) bool {
	return x == nil || x.cpuDelta == 0 && x.msgsDelta == 0 && len(x.commDelta) == 0
}

func onRunq(k *Kernel, p *Process) bool {
	for i := 0; i < k.runq.Len(); i++ {
		if k.runq.at(i) == p {
			return true
		}
	}
	return false
}

// TestRecycledProcessRecordIsClean ends a process three ways — exit, body
// crash, kill while Ready on the run queue — each time after it held a
// link, an image, three messages at once and CPU, and checks that the next
// Spawn gets that very record with nothing of the dead process on it (an
// empty queue that keeps its ring, a side record with no image, migration
// or previous host) and runs exactly its own slices.
func TestRecycledProcessRecordIsClean(t *testing.T) {
	for _, end := range []string{"exit", "crash", "kill-on-runq"} {
		t.Run(end, func(t *testing.T) {
			e, ks := poolTestCluster(t, 1)
			k := ks[0]
			peer, err := k.Spawn(SpawnSpec{Body: &poolDrainBody{}})
			if err != nil {
				t.Fatal(err)
			}
			old := &scriptBody{slices: 3}
			switch end {
			case "crash":
				old.crash = errors.New("boom")
			case "kill-on-runq":
				old.slices = -1
			}
			oldPID, err := k.Spawn(SpawnSpec{Body: old, ImageSize: memory.PageSize, Links: []link.Link{{Addr: addr.At(peer, 1)}}})
			if err != nil {
				t.Fatal(err)
			}
			rec := k.lookup(oldPID)
			// Dress the record in a migrated-in process's back pointer, a
			// migration half and load-report deltas.
			x := k.extOf(rec)
			x.cameFrom, x.mig = 9, &migration{}
			x.cpuDelta, x.msgsDelta = 1, 1
			for i := 0; i < 3; i++ {
				if err := k.GiveMessage(oldPID, addr.At(peer, 1), []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if rec.queue.Len() != 3 || rec.queue.more == nil {
				t.Fatalf("victim's queue holds %d messages (ring %p), want 3 with a ring", rec.queue.Len(), rec.queue.more)
			}
			ring := rec.queue.more
			if end == "kill-on-runq" {
				e.RunFor(500)
				if !rec.onRunq || !onRunq(k, rec) || rec.state != StateReady {
					t.Fatalf("victim not Ready on the run queue before the kill (onRunq=%v state=%v)", rec.onRunq, rec.state)
				}
				k.GiveControl(oldPID, msg.OpKill, nil)
			}
			e.Run()
			if _, ok := k.Exit(oldPID); !ok {
				t.Fatalf("%v did not end", oldPID)
			}
			if old.seen != 3 || rec.state != 0 {
				t.Fatalf("old process saw %d messages, record state %v; want 3 and a zeroed record", old.seen, rec.state)
			}
			if onRunq(k, rec) {
				t.Fatal("dead process's record is still on the run queue")
			}

			slices := k.Stats().Slices
			next := &scriptBody{slices: 2}
			pid, err := k.Spawn(SpawnSpec{Body: next})
			if err != nil {
				t.Fatal(err)
			}
			p := k.lookup(pid)
			if p != rec {
				t.Fatalf("spawn did not reuse the released record (%p, want %p)", p, rec)
			}
			if p.links.Len() != 0 {
				t.Fatalf("recycled record's link table is not empty: %v", p.links)
			}
			if _, ok := p.links.Get(1); ok {
				t.Fatal("the dead process's link 1 resolves in the new process")
			}
			info, _ := k.Process(pid)
			if info.CPUUsed != 0 || info.MsgsIn != 0 || info.MsgsOut != 0 || info.QueueLen != 0 || info.Links != 0 {
				t.Fatalf("recycled record carries accounting: %+v", info)
			}
			if !extIsEmpty(p.ext) || p.queueHighWater != 0 || p.prevState != 0 {
				t.Fatalf("recycled record inherited state: %+v (ext %+v)", p, p.ext)
			}
			if p.ext == nil {
				t.Fatal("recycled record lost its side record")
			}
			if p.queue.head != nil || p.queue.Len() != 0 || p.queue.more != ring || ring.Len() != 0 {
				t.Fatalf("recycled queue = %+v (ring %+v), want empty, keeping ring %p", p.queue, p.queue.more, ring)
			}
			e.Run()
			if next.ran != 2 || k.Stats().Slices != slices+2 {
				t.Fatalf("new process ran %d slices (kernel counted %d), want exactly 2",
					next.ran, k.Stats().Slices-slices)
			}
			if ex, ok := k.Exit(pid); !ok || ex.Code != 7 || ex.Err != nil {
				t.Fatalf("new process exit = %+v, %v", ex, ok)
			}
			// The dead process's exit record is its own, not the newcomer's.
			ex, _ := k.Exit(oldPID)
			if (end == "exit") != (ex.Err == nil) {
				t.Fatalf("old exit record = %+v after the record was reused", ex)
			}
		})
	}
}

// TestReclaimedForwarderIsRecycled: the §4 forwarder GC removes a
// forwarding address from the forwarder table together with the per-sender
// forward counts it gathered, so nothing of the address is left.
func TestReclaimedForwarderIsRecycled(t *testing.T) {
	e, ks := poolTestCluster(t, 2)
	k1, k2 := ks[0], ks[1]
	k1.cfg.ReclaimForwarders, k2.cfg.ReclaimForwarders = true, true
	pid, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	k1.RequestMigrationOf(addr.At(pid, 1), 2)
	e.Run()
	f, ok := k1.fwdOf(pid)
	if !ok || k1.lookup(pid) != nil || f.to != 2 || k1.led.At(f.rec).PID != pid {
		t.Fatalf("m1 after the migration holds %+v (%v), want a forwarding address to m2 with a ledger row", f, ok)
	}
	// A stale send through the address leaves a per-sender count on it.
	if err := k1.GiveMessage(pid, addr.At(sender, 1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(k1.coldRec.runs[pid]) == 0 {
		t.Fatal("the forwarded send left no per-sender count for the address")
	}
	k2.GiveControl(pid, msg.OpKill, nil)
	e.Run()
	if _, ok := k1.fwdOf(pid); ok || k1.Stats().ForwardersReclaimed != 1 || k1.Stats().ForwarderBytes != 0 {
		t.Fatalf("forwarder not reclaimed (reclaimed %d, %d B left)", k1.Stats().ForwardersReclaimed, k1.Stats().ForwarderBytes)
	}
	if len(k1.coldRec.fwds) != 0 || len(k1.coldRec.runs) != 0 {
		t.Fatalf("the reclaimed address left %v in the table and sender counts %v", k1.coldRec.fwds, k1.coldRec.runs)
	}
}

// TestExitRecordsLocalForeignAndAcrossRestart: Exit answers for a pid this
// machine created (dense table) and for one that migrated in and died here
// (map), an unknown pid of either kind has none, and both records survive
// Crash + Restart as the single map did. A local pid that crashed keeps its
// error (held apart from the dense table) through the restart too, until
// its UID is issued again.
func TestExitRecordsLocalForeignAndAcrossRestart(t *testing.T) {
	e, ks := poolTestCluster(t, 2)
	k1, k2 := ks[0], ks[1]
	local, err := k2.Spawn(SpawnSpec{Body: &scriptBody{slices: 1}})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	crashed, err := k2.Spawn(SpawnSpec{Body: &scriptBody{slices: 1, crash: boom}})
	if err != nil {
		t.Fatal(err)
	}
	mover, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	k1.RequestMigrationOf(addr.At(mover, 1), 2)
	e.Run()
	if p := k2.lookup(mover); p == nil || k2.procs[mover] != p {
		t.Fatalf("mover is not a foreign record in m2's map: %v", p)
	}
	k2.GiveControl(mover, msg.OpKill, nil)
	e.Run()

	check := func(when string) {
		t.Helper()
		if ex, ok := k2.Exit(local); !ok || ex.Code != 7 {
			t.Fatalf("%s: local exit = %+v, %v", when, ex, ok)
		}
		if ex, ok := k2.Exit(mover); !ok || ex.Err == nil {
			t.Fatalf("%s: foreign exit = %+v, %v", when, ex, ok)
		}
		if ex, ok := k2.Exit(crashed); !ok || !errors.Is(ex.Err, boom) {
			t.Fatalf("%s: crashed local exit = %+v, %v; want its error", when, ex, ok)
		}
		for _, pid := range []addr.ProcessID{{Creator: 2, Local: 9}, {Creator: 2, Local: 60000}, {Creator: 1, Local: 9}} {
			if _, ok := k2.Exit(pid); ok {
				t.Fatalf("%s: exit record for %v, which never ran here", when, pid)
			}
		}
	}
	check("before crash")
	k2.Crash()
	if err := k2.Restart(); err != nil {
		t.Fatal(err)
	}
	check("after restart")
	// The UID counter survives too: a restart must not re-issue a dead pid.
	again, err := k2.Spawn(SpawnSpec{Body: &scriptBody{slices: 1}})
	if err != nil || again == local {
		t.Fatalf("spawn after restart = %v, %v; %v is taken", again, err, local)
	}
	// Once the counter wraps round to the crashed pid's UID, the new holder
	// starts with no exit on record, and the old error goes with the old one.
	k2.nextUID = crashed.Local
	reissued, err := k2.Spawn(SpawnSpec{Body: &scriptBody{slices: 1}})
	if err != nil || reissued != crashed {
		t.Fatalf("spawn at the crashed pid's UID = %v, %v; want %v", reissued, err, crashed)
	}
	if ex, ok := k2.Exit(reissued); ok {
		t.Fatalf("reissued %v already has an exit: %+v", reissued, ex)
	}
	e.Run()
	if ex, ok := k2.Exit(reissued); !ok || ex.Code != 7 || ex.Err != nil || len(k2.localErrs) != 0 {
		t.Fatalf("reissued exit = %+v, %v (crash errors held: %d); want code 7 and no error", ex, ok, len(k2.localErrs))
	}
}

// linkerBody takes its first link in its first slice when create is set,
// and otherwise only as a link carried on a message; got is the id it was
// given.
type linkerBody struct {
	create bool
	got    link.ID
}

func (b *linkerBody) Kind() string { return "linker" }

func (b *linkerBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if b.create && b.got == link.NilID {
		b.got, _ = ctx.CreateLink(0, link.DataArea{})
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if len(d.Carried) > 0 {
			b.got = d.Carried[0]
		}
	}
}

func (b *linkerBody) Snapshot() ([]byte, error) { return nil, nil }
func (b *linkerBody) Restore([]byte) error      { return nil }

// TestLinkTableInstalledAtFirstLink: a process spawned without links holds
// no link table, and keeps none while it runs and receives link-less
// messages; its first link — created, minted for it by the kernel, or
// carried in on a message — installs the table, and gets id 1.
func TestLinkTableInstalledAtFirstLink(t *testing.T) {
	for _, how := range []string{"create", "mint", "carried"} {
		t.Run(how, func(t *testing.T) {
			e, ks := poolTestCluster(t, 1)
			k := ks[0]
			b := &linkerBody{create: how == "create"}
			pid, err := k.Spawn(SpawnSpec{Body: b})
			if err != nil {
				t.Fatal(err)
			}
			if err := k.GiveMessage(pid, addr.KernelAddr(1), []byte("no links")); err != nil {
				t.Fatal(err)
			}
			if how != "create" {
				e.Run()
				if p := k.lookup(pid); p.links != nil {
					t.Fatalf("link-less process holds a table after running: %+v", p.links)
				}
			}
			to := link.Link{Addr: addr.At(pid, 1)}
			switch how {
			case "mint":
				b.got, err = k.MintLinkTo(to, pid)
			case "carried":
				err = k.GiveMessage(pid, addr.KernelAddr(1), []byte("one link"), to)
			}
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			if p := k.lookup(pid); p.links == nil || p.links.Len() != 1 || b.got != 1 {
				t.Fatalf("after the first link: table %+v, id %v; want one link with id 1", p.links, b.got)
			}
		})
	}
}

// TestKillHeldAcrossMigrationEndsTheProcess: a kill that reaches a frozen
// process is held, forwarded in step 6 and held again on the incoming
// record, so it is served by step 8's restart — which terminate then
// recycles under redeliver's feet. The process must end there and then,
// and the message held behind the kill must be released, not delivered to
// a zeroed record.
func TestKillHeldAcrossMigrationEndsTheProcess(t *testing.T) {
	e, ks := poolTestCluster(t, 2)
	k1, k2 := ks[0], ks[1]
	pid, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	k1.RequestMigrationOf(addr.At(pid, 1), 2)
	for k1.lookup(pid).state != StateInMigration {
		if !e.Step() {
			t.Fatal("engine idle before the freeze")
		}
	}
	k1.GiveControl(pid, msg.OpKill, nil)
	for k1.lookup(pid).queue.Len() == 0 {
		if !e.Step() {
			t.Fatal("engine idle before the kill was held")
		}
	}
	if err := k1.GiveMessage(pid, addr.KernelAddr(1), []byte("behind the kill")); err != nil {
		t.Fatal(err)
	}
	e.Run()

	if ex, ok := k2.Exit(pid); !ok || ex.Err == nil {
		t.Fatalf("exit on m2 = %+v, %v; want killed there", ex, ok)
	}
	if p := k2.lookup(pid); p != nil {
		t.Fatalf("m2 still holds %v in state %v", pid, p.state)
	}
	if k2.runq.Len() != 0 || k2.Stats().Kills != 1 || k2.PendingMigrations() != 0 {
		t.Fatalf("m2 after the kill: runq %d, kills %d, pending migrations %d",
			k2.runq.Len(), k2.Stats().Kills, k2.PendingMigrations())
	}
	n1, f1, h1 := k1.PoolStats()
	n2, f2, h2 := k2.PoolStats()
	if n1+n2 != f1+f2+h1+h2 {
		t.Fatalf("envelope pool: %d constructed, %d free + %d held", n1+n2, f1+f2, h1+h2)
	}
}

// TestHeldKillEndsTheRestartedProcess: a kill held on a stopped process,
// then a user message held behind it, then the restart — the source's after
// m2 refuses, the destination's at step 8. Restarting serves the held kill,
// which ends the process and releases the message behind it; the drain must
// stop there rather than pop from the recycled record's empty queue.
func TestHeldKillEndsTheRestartedProcess(t *testing.T) {
	for _, tt := range []struct {
		name string
		at   int // the machine that holds the kill and restarts the process
	}{
		{"source, refused by m2", 1},
		{"destination, at cleanup", 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			e, ks := poolTestCluster(t, 2)
			k1, k2, k := ks[0], ks[1], ks[tt.at-1]
			if tt.at == 1 {
				k2.SetAccept(func(msg.MigrateAsk, int) bool { return false })
			}
			pid, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			k1.RequestMigrationOf(addr.At(pid, 1), 2)
			for p := k.lookup(pid); p == nil || (p.state != StateInMigration && p.state != StateIncoming); p = k.lookup(pid) {
				if !e.Step() {
					t.Fatal("engine idle before the process stopped")
				}
			}
			k.GiveControl(pid, msg.OpKill, nil)
			e.After(100, "test:behind-the-kill", func() {
				if err := k.GiveMessage(pid, addr.KernelAddr(1), []byte("behind the kill")); err != nil {
					t.Error(err)
				}
			})
			e.Run()

			if held := k.Stats().MsgsHeld; held != 2 {
				t.Fatalf("m%d held %d messages, want the kill and the one behind it", tt.at, held)
			}
			if tt.at == 1 && k2.Stats().MigrationsRefused != 1 {
				t.Fatalf("m2 refused %d migrations, want 1", k2.Stats().MigrationsRefused)
			}
			for _, kk := range ks {
				if p := kk.lookup(pid); p != nil {
					t.Fatalf("m%d still holds %v in state %v", kk.machine, pid, p.state)
				}
			}
			if ex, ok := k.Exit(pid); !ok || ex.Err == nil {
				t.Fatalf("exit on m%d = %+v, %v; want killed there", tt.at, ex, ok)
			}
			if k.runq.Len() != 0 || k.Stats().Kills != 1 || k.PendingMigrations() != 0 {
				t.Fatalf("m%d after the kill: runq %d, kills %d, pending migrations %d",
					tt.at, k.runq.Len(), k.Stats().Kills, k.PendingMigrations())
			}
			n1, f1, h1 := k1.PoolStats()
			n2, f2, h2 := k2.PoolStats()
			if n1+n2 != f1+f2+h1+h2 {
				t.Fatalf("envelope pool: %d constructed, %d free + %d held", n1+n2, f1+f2, h1+h2)
			}
		})
	}
}

// TestProcessesOrderAcrossSplitTables: Processes lists in (creator, local)
// order whether a record lives in the dense local table or the foreign map,
// forwarding addresses included.
func TestProcessesOrderAcrossSplitTables(t *testing.T) {
	e, ks := poolTestCluster(t, 3)
	spawn := func(k *Kernel) addr.ProcessID {
		t.Helper()
		pid, err := k.Spawn(SpawnSpec{Body: &poolDrainBody{}})
		if err != nil {
			t.Fatal(err)
		}
		return pid
	}
	k2 := ks[1]
	a, leaver, b := spawn(k2), spawn(k2), spawn(k2)
	from1a, from1b, from3 := spawn(ks[0]), spawn(ks[0]), spawn(ks[2])
	e.Run()
	k2.RequestMigrationOf(addr.At(leaver, 2), 3)
	ks[2].RequestMigrationOf(addr.At(from3, 3), 2)
	ks[0].RequestMigrationOf(addr.At(from1b, 1), 2) // arrive out of pid order
	e.Run()
	ks[0].RequestMigrationOf(addr.At(from1a, 1), 2)
	e.Run()

	want := []addr.ProcessID{from1a, from1b, a, leaver, b, from3}
	got := k2.Processes()
	if len(got) != len(want) {
		t.Fatalf("Processes() = %v, want pids %v", got, want)
	}
	for i, info := range got {
		if info.PID != want[i] {
			t.Fatalf("Processes()[%d] = %v, want %v (all: %v)", i, info.PID, want[i], got)
		}
		if (info.State == StateForwarder) != (info.PID == leaver) {
			t.Fatalf("%v state %v", info.PID, info.State)
		}
	}
}

// TestSpawnUIDWrap drives one kernel through more spawn-to-exit cycles than
// there are local UIDs. UID 0 is the kernel's own address and must never be
// issued (the process would never see its timer: kernelMsg consumes it), a
// process still alive keeps its UID to itself, and every job exits.
func TestSpawnUIDWrap(t *testing.T) {
	e, ks := poolTestCluster(t, 1)
	k := ks[0]
	k.cfg.Tracer = nil
	elder, err := k.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 65_540
	job := &workload.Job{}
	for i := 0; i < cycles; i++ {
		*job = workload.Job{Service: 1}
		pid, err := k.Spawn(SpawnSpec{Body: job})
		if err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
		if pid.IsKernel() || pid.Local == 0 || pid == elder {
			t.Fatalf("spawn %d was issued %v (kernel address, or the live %v)", i, pid, elder)
		}
		e.Run()
		if _, ok := k.Exit(pid); !ok {
			t.Fatalf("spawn %d: %v never exited", i, pid)
		}
	}
	if st := k.Stats(); st.Spawned != cycles+1 || st.Exited != cycles {
		t.Fatalf("spawned %d, exited %d; want %d and %d", st.Spawned, st.Exited, cycles+1, cycles)
	}
	if info, ok := k.Process(elder); !ok || info.State != StateWaiting {
		t.Fatalf("long-lived %v = %+v, %v", elder, info, ok)
	}
	if n := k.localSlots(); n > 1<<16 {
		t.Fatalf("local table grew to %d slots", n)
	}
}

// TestSpawnFailsOnlyWhenEveryUIDIsLive fills all 65 535 local UIDs with live
// processes: the next Spawn is refused with an error, and succeeds — with
// exactly the freed UID, and no exit record inherited — once one dies.
func TestSpawnFailsOnlyWhenEveryUIDIsLive(t *testing.T) {
	e, ks := poolTestCluster(t, 1)
	k := ks[0]
	k.cfg.Tracer = nil
	idle := &poolDrainBody{} // stateless while nothing is sent to it: one body serves all
	for i := 0; i < maxLocalUID; i++ {
		if _, err := k.Spawn(SpawnSpec{Body: idle}); err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
	}
	if pid, err := k.Spawn(SpawnSpec{Body: idle}); err == nil {
		t.Fatalf("spawn with every UID live was issued %v", pid)
	}
	victim := addr.ProcessID{Creator: 1, Local: 40_000}
	k.GiveControl(victim, msg.OpKill, nil)
	e.Run()
	if _, ok := k.Exit(victim); !ok {
		t.Fatal("victim not killed")
	}
	pid, err := k.Spawn(SpawnSpec{Body: idle})
	if err != nil || pid != victim {
		t.Fatalf("spawn after a death = %v, %v; want the freed %v", pid, err, victim)
	}
	if _, ok := k.Exit(pid); ok {
		t.Fatal("the re-issued pid was born with its predecessor's exit record")
	}
}
