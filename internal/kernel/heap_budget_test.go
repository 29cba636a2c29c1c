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
// holds nothing, in three readings of 20 000 link-less open-loop jobs on a
// bare kernel. The bodies are allocated before the first reading of each
// scene, so only the kernel's share counts. (The race detector's shadow
// allocations inflate HeapAlloc, hence the build tag.)
//
// idle: first while every job waits on its timer, then after all have
// exited and their records and timer records sit on the free chains.
// Waiting costs the 96-byte record, its UID slot in a 16-slot page, its
// timer (a 32-byte pending record and the 24-byte closure bound to it) and
// the engine's event slot: 246 B (254 B with a pending record in the
// 48-byte class). After exit the same parts are parked, each kind on a
// chain through the records themselves: 246 B (255 B with a slice of
// pointers to the pending records). Each budget leaves less slack than the
// smallest per-process cost it is there to catch. The budgets (250 B each)
// fail on a free list that keeps each parked record's pointer in a slice
// (+8 B), a pending record one size class up (+16 B), a link table per
// process (64 B), a side record per process on a kernel without load
// reports (48 B), a process record one size class up (112 B, +16 B) or a
// queue ring per record.
//
// fired-queued: the jobs' timers fire 10 µs apart, far faster than the one
// CPU serves them, and the reading is taken when the last has fired, with
// ~19 000 jobs waiting fired on their queues. A fired timer waits as the
// kernel's shared mark in the queue's inline head, not as an envelope
// (246 B a job, against 375 B with a 128-byte envelope and its body per
// queued job); the budget (250 B) fails on an envelope or a ring (a 40-byte
// ring and its backing) per queued job, and on the slice-backed free list
// (255 B). The pool must balance with nothing held: the hops drew no
// envelope.
func TestPerProcessHeapBudget(t *testing.T) {
	const n = 20_000
	var ms runtime.MemStats
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // what survives one collection (sync.Pool victims) is gone
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Every job's first slice costs 150 µs of the one CPU (job i's runs at
	// 150·i µs), so all have run and armed their timers well before the
	// first fires at 10 s.
	const service = sim.Time(10_000_000)
	spawn := func(t *testing.T, k *Kernel, bodies []workload.Job) {
		for i := range bodies {
			if _, err := k.Spawn(SpawnSpec{Body: &bodies[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("idle", func(t *testing.T) {
		const waitingBudget, endedBudget = 250, 250
		eng := sim.NewEngine(1)
		k := New(1, eng, netw.New(eng, netw.Config{}), Config{})
		bodies := make([]workload.Job, n)
		for i := range bodies {
			bodies[i].Service = service
		}
		before := live()
		spawn(t, k, bodies)
		eng.RunUntil(service)
		if p := k.lookup(addr.ProcessID{Creator: 1, Local: n}); p == nil || p.state != StateWaiting || p.links != nil {
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
	})

	t.Run("fired-queued", func(t *testing.T) {
		const budget = 250
		eng := sim.NewEngine(1)
		k := New(1, eng, netw.New(eng, netw.Config{}), Config{})
		bodies := make([]workload.Job, n)
		for i := range bodies {
			// Job i arms at 150·i µs and fires at 10 s + 10·i µs.
			bodies[i].Service = service - sim.Time(140*i)
		}
		before := live()
		spawn(t, k, bodies)
		// The last fires at 10 s + 199 990 µs and reaches its queue one
		// local hop later.
		eng.RunUntil(service + 10*n + LocalLatency)
		queued := 0
		k.eachProc(func(p *Process) {
			if p.queue.Len() > 0 {
				queued++
			}
		})
		if queued < n*9/10 {
			t.Fatalf("%d of %d jobs wait fired on their queues, want at least %d", queued, n, n*9/10)
		}
		per := (int64(live()) - int64(before)) / n
		news, free, held := k.PoolStats()
		t.Logf("kernel heap per job with %d of %d fired and queued: %d B; pool: %d made, %d free, %d held",
			queued, n, per, news, free, held)
		if per > budget {
			t.Errorf("a job waiting fired behind a busy CPU costs the kernel %d B, budget %d B", per, budget)
		}
		if news != free+held || held != 0 {
			t.Errorf("pool: %d made, %d free, %d held; want made == free and none held in queues", news, free, held)
		}
		eng.Run()
		if got := k.Stats().Exited; got != n {
			t.Fatalf("%d of %d jobs exited", got, n)
		}
		runtime.KeepAlive(k)
		runtime.KeepAlive(bodies)
	})
}

// TestPerForwarderHeapBudget pins what a forwarding address costs the
// kernel that keeps it (§4; the paper's costs 8 bytes): 2 000 counters
// spawned on machine 1 migrate to machine 2, and the live heap is read with
// machine 1's forwarder table full and again once the table is dropped (not
// reclaimed). The difference per address is its table entry and nothing
// else: a 4-byte pid key and an 8-byte pointer-free value (fwd) in a Go
// map's groups, ~27 B at this size (the UID slot and the ledger record stay
// either way). The budget (40 B) fails on a process record per address
// (96 B) or on any pointer-carrying side record. The departed record is no
// longer the address: it waits on procFree's chain for the next spawn or
// arrival, so the test also logs the live heap per departed process with
// the chain's records counted, which the table must not hide.
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
	freed := len(k1.parkedRecs())
	k1.procFree = nil
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
