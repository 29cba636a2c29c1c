//go:build !race

package kernel

import (
	"runtime"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/netw"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// TestPerProcessHeapBudget pins what the kernel spends on a process that
// holds nothing: 20 000 link-less open-loop jobs on a bare kernel, first
// while every one waits on its timer, then after all have exited and their
// records, queue rings and timer records sit on the free lists. The bodies
// are allocated before the first reading, so only the kernel's share
// counts: the 128-byte record, its UID slot, its 2-slot queue ring, its
// timer and the engine's event slot while it waits (282 B), and after exit
// the same parts parked on the free lists (353 B). Each budget leaves less
// slack than the smallest per-process allocation it is there to catch. The
// waiting budget (300 B) fails on a link table per process (64 B) or a side
// record per process on a kernel without load reports (48 B); the ended
// budget (380 B) on an 8-slot queue ring (48 B more than 2 slots) or on the
// same side record kept on the free list. A record one size class up (144 B)
// fits both; TestProcessRecordLayout catches that. (The race detector's
// shadow allocations inflate HeapAlloc, hence the build tag.)
func TestPerProcessHeapBudget(t *testing.T) {
	const n, waitingBudget, endedBudget = 20_000, 300, 380
	eng := sim.NewEngine(1)
	k := New(1, eng, netw.New(eng, netw.Config{}), Config{})
	bodies := make([]workload.Job, n)
	var ms runtime.MemStats
	live := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	// Every job's first slice costs 150 µs of the one CPU, so all have run
	// and armed their timers well before the first fires.
	const service = sim.Time(10_000_000)
	for i := range bodies {
		bodies[i].Service = service
		if _, err := k.Spawn(SpawnSpec{Body: &bodies[i]}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(service)
	if p := k.local[n].p; p == nil || p.state != StateWaiting || p.links != nil {
		t.Fatalf("job %d is not waiting link-less on its timer: %+v", n, p)
	}
	waiting := (int64(live()) - int64(before)) / n
	eng.Run()
	if got := k.Stats().Exited; got != n {
		t.Fatalf("%d of %d jobs exited", got, n)
	}
	ended := (int64(live()) - int64(before)) / n
	t.Logf("kernel heap per process: %d B waiting, %d B after exit", waiting, ended)
	if waiting > waitingBudget {
		t.Errorf("a waiting link-less job costs the kernel %d B, budget %d B", waiting, waitingBudget)
	}
	if ended > endedBudget {
		t.Errorf("an exited job leaves the kernel %d B, budget %d B", ended, endedBudget)
	}
	runtime.KeepAlive(k)
	runtime.KeepAlive(bodies)
}

// TestPerForwarderHeapBudget pins what a forwarding address costs the
// kernel that keeps it (§4; the paper's costs 8 bytes): 2 000 counters
// spawned on machine 1 migrate to machine 2, and the live heap is read with
// machine 1's forwarder table full and again once the table is dropped (not
// reclaimed). The difference per address is its table entry and nothing
// else: a 4-byte pid key and an 8-byte pointer-free value (fwd) in a Go
// map's groups, ~27 B at this size (the UID slot and the ledger record stay
// either way). The budget (40 B) fails on a process record per address
// (128 B) or on any pointer-carrying side record. The departed record is no
// longer the address: it waits on procFree for the next spawn or arrival,
// so the test also logs the live heap per departed process with procFree's
// records counted, which the table must not hide.
func TestPerForwarderHeapBudget(t *testing.T) {
	const n, budget = 2_000, 40
	var ms runtime.MemStats
	live := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	eng := sim.NewEngine(1)
	net := netw.New(eng, netw.Config{})
	cfg := Config{Registry: workload.Registry(), Machines: []addr.MachineID{1, 2}}
	k1, k2 := New(1, eng, net, cfg), New(2, eng, net, cfg)
	bodies := make([]workload.Counter, n)
	pids := make([]addr.ProcessID, n)
	for i := range bodies {
		pid, err := k1.Spawn(SpawnSpec{Body: &bodies[i]})
		if err != nil {
			t.Fatal(err)
		}
		pids[i] = pid
	}
	eng.Run()
	for _, pid := range pids {
		k1.RequestMigrationOf(addr.At(pid, 1), 2)
	}
	eng.Run()
	if s := k1.Stats(); s.MigrationsOut != n || s.ForwardersInstalled != n || s.ForwarderBytes != n*ForwarderWireSize {
		t.Fatalf("%d migrations out, %d forwarders installed, %d B; want %d, %d and %d B",
			s.MigrationsOut, s.ForwardersInstalled, s.ForwarderBytes, n, n, n*ForwarderWireSize)
	}
	for _, pid := range pids {
		if _, ok := k1.fwdOf(pid); !ok || k1.lookup(pid) != nil {
			t.Fatalf("%v: no forwarding address on m1, or a record beside it", pid)
		}
	}
	withFwd := live()
	k1.coldRec.fwds = nil
	noFwd := live()
	freed := len(k1.procFree.free)
	k1.procFree = freelist[Process]{}
	noFree := live()
	per := (int64(withFwd) - int64(noFwd)) / n
	departed := (int64(withFwd) - int64(noFree)) / n
	t.Logf("kernel heap per forwarding address: %d B (paper: %d B); per departed process with the %d records on procFree: %d B",
		per, ForwarderWireSize, freed, departed)
	if per > budget {
		t.Errorf("a forwarding address costs its kernel %d B, budget %d B", per, budget)
	}
	runtime.KeepAlive(k1)
	runtime.KeepAlive(k2)
	runtime.KeepAlive(bodies)
}
