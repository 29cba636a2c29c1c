package kernel

import (
	"math/rand"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/netw"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// twoCounterKernels is a bare two-machine scene whose registry knows the
// counter body, so a counter spawned on either machine can migrate.
func twoCounterKernels() (*sim.Engine, *Kernel, *Kernel) {
	eng := sim.NewEngine(1)
	net := netw.New(eng, netw.Config{})
	cfg := Config{Registry: workload.Registry(), Machines: []addr.MachineID{1, 2}}
	return eng, New(1, eng, net, cfg), New(2, eng, net, cfg)
}

// checkSlotPages holds the UID table to its shape: the first page grown
// slot by slot up to slotPage, every later page whole, and the first page
// whole once there is a second.
func checkSlotPages(t *testing.T, k *Kernel) {
	t.Helper()
	for i, pg := range k.local {
		if i > 0 && (len(pg) != slotPage || len(k.local[0]) != slotPage) {
			t.Fatalf("page %d holds %d slots and page 0 %d; every page but a lone first one must hold %d",
				i, len(pg), len(k.local[0]), slotPage)
		}
		if len(pg) > slotPage {
			t.Fatalf("page %d holds %d slots, more than %d", i, len(pg), slotPage)
		}
	}
}

// TestSlotPagesAcrossPageEdges fills one kernel's UID table with live
// processes up to every UID there is, reading it at each page edge: a
// table holding UIDs 0..n has exactly n+1 slots while it fits the first
// page and whole pages after that (no slack beyond the last page), and
// lookup finds each process on both sides of the edge.
func TestSlotPagesAcrossPageEdges(t *testing.T) {
	eng, k, _ := twoCounterKernels()
	bodies := make([]workload.Counter, maxLocalUID)
	for n := 1; n <= maxLocalUID; n++ {
		pid, err := k.Spawn(SpawnSpec{Body: &bodies[n-1]})
		if err != nil {
			t.Fatalf("spawn %d: %v", n, err)
		}
		if int(pid.Local) != n {
			t.Fatalf("spawn %d was issued UID %d", n, pid.Local)
		}
		if r := n % slotPage; r != slotPage-1 && r != 0 && r != 1 && n != maxLocalUID {
			continue
		}
		want := n + 1
		if want > slotPage {
			want = (want + slotPage - 1) / slotPage * slotPage
		}
		if got := k.localSlots(); got != want {
			t.Fatalf("with UIDs 0..%d the table holds %d slots, want %d", n, got, want)
		}
		checkSlotPages(t, k)
		for uid := max(1, n-2); uid <= n+1; uid++ {
			p := k.lookup(addr.ProcessID{Creator: 1, Local: addr.LocalUID(uid)})
			if (p != nil) != (uid <= n) || (p != nil && int(p.id.Local) != uid) {
				t.Fatalf("with UIDs 1..%d live, lookup(%d) = %v", n, uid, p)
			}
		}
	}
	if _, err := k.Spawn(SpawnSpec{Body: &workload.Counter{}}); err == nil {
		t.Fatal("a spawn with every UID live succeeded")
	}
	seen := 0
	k.eachProc(func(*Process) { seen++ })
	if seen != maxLocalUID {
		t.Fatalf("eachProc visited %d of %d processes", seen, maxLocalUID)
	}
	eng.RunFor(1)
}

// checkFreeChain holds k's free chain to what only a released record may
// be: on no table, on no run queue, with an empty queue, a parked body and
// no cycle. It returns the chain's length.
func checkFreeChain(t *testing.T, k *Kernel) int {
	t.Helper()
	inTable := make(map[*Process]bool)
	k.eachProc(func(p *Process) { inTable[p] = true })
	onChain := make(map[*Process]bool)
	for p := k.procFree; p != nil; {
		if onChain[p] {
			t.Fatalf("m%d: the free chain loops at a record", k.machine)
		}
		onChain[p] = true
		if inTable[p] {
			t.Fatalf("m%d: %v is both parked and in the process table", k.machine, p.id)
		}
		if p.runNext != nil || p.queue.Len() != 0 || p.id != (addr.ProcessID{}) {
			t.Fatalf("m%d: a parked record is not clean: run-queue link %p, %d queued, id %v",
				k.machine, p.runNext, p.queue.Len(), p.id)
		}
		next, ok := p.body.(*parked)
		if !ok {
			t.Fatalf("m%d: a parked record's body is %T, not the chain's link", k.machine, p.body)
		}
		p = (*Process)(next)
	}
	for c := k.runq.head; c != nil; c = c.runNext {
		if onChain[c] {
			t.Fatalf("m%d: a parked record is on the run queue", k.machine)
		}
	}
	return len(onChain)
}

// TestFreeChainHoldsOnlyReleasedRecords spawns, exits and migrates counters
// between two machines at random, so records are parked by exits and
// departures and taken back by spawns and arrivals on both, and checks
// both free chains after every operation: no record is ever both parked
// and in a table. Processes() renders every table record's body kind, so
// a parked record in a table would also reach the parked body's panic.
// Restart orphans the chain: a restarted kernel has none, and its next
// exits build a new one.
func TestFreeChainHoldsOnlyReleasedRecords(t *testing.T) {
	eng, k1, k2 := twoCounterKernels()
	ks := []*Kernel{k1, k2}
	rng := rand.New(rand.NewSource(7))
	var parkedMax int
	step := func() {
		k := ks[rng.Intn(2)]
		procs := k.sortedProcs()
		switch op := rng.Intn(3); {
		case op == 0 || len(procs) < 8:
			if _, err := k.Spawn(SpawnSpec{Body: &workload.Counter{}}); err != nil {
				t.Fatal(err)
			}
		case op == 1:
			k.terminate(procs[rng.Intn(len(procs))], 0, nil)
		default:
			dest := addr.MachineID(3 - k.machine)
			k.RequestMigrationOf(addr.At(procs[rng.Intn(len(procs))].id, k.machine), dest)
		}
		eng.Run()
		for _, k := range ks {
			parkedMax = max(parkedMax, checkFreeChain(t, k))
			k.Processes()
		}
	}
	for range 600 {
		step()
	}
	if parkedMax == 0 {
		t.Fatal("no record was ever parked")
	}
	if s := k1.Stats(); s.MigrationsIn == 0 || s.MigrationsOut == 0 {
		t.Fatalf("m1 migrated %d in and %d out; the scene must move records both ways", s.MigrationsIn, s.MigrationsOut)
	}
	if checkFreeChain(t, k1) == 0 {
		t.Fatal("m1 has no parked record before the crash")
	}
	k1.Crash()
	if err := k1.Restart(); err != nil {
		t.Fatal(err)
	}
	if n := checkFreeChain(t, k1); n != 0 {
		t.Fatalf("a restarted kernel keeps %d parked records", n)
	}
	exited := k1.Stats().Exited
	for range 200 {
		step()
	}
	if k1.Stats().Exited == exited {
		t.Fatal("m1 ran no exit after its restart")
	}
}

// TestParkedBodyPanics: every proc.Body method of the chain's link panics,
// so a path that steps, snapshots or names a parked record fails loudly
// instead of running a body that is not there.
func TestParkedBodyPanics(t *testing.T) {
	var b *parked
	for name, call := range map[string]func(){
		"Kind":     func() { b.Kind() },
		"Step":     func() { b.Step(nil, 1) },
		"Snapshot": func() { _, _ = b.Snapshot() },
		"Restore":  func() { _ = b.Restore(nil) },
	} {
		func() {
			defer func() {
				if r := recover(); r != parkedBody {
					t.Errorf("%s on a parked body: recovered %v, want %q", name, r, parkedBody)
				}
			}()
			call()
		}()
	}
}
