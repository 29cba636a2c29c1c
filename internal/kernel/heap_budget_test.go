//go:build !race

package kernel

import (
	"runtime"
	"testing"

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
