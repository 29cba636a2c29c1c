//go:build !race

package core

import (
	"runtime"
	"testing"
)

// TestPerMachineHeapBudget pins what one simulated machine costs in live
// heap once a 1000-machine cluster is built: about 750 B. Most of it is
// the Kernel struct (one allocation in the 576-byte size class), then the
// network's per-machine state (56 + 40 B), the envelope pool (48 B), the
// kernel's bound runSlice (16 B), the cluster's two dense tables (kernel
// and shard, 8 B each) and the one obs.Rows value per kernel (16 B).
// Everything a machine that only runs jobs and exchanges user messages
// never touches waits for its first use: the kernel's cold record (the
// migration, fault-plane, load-report and console fields and the cold
// counters) for the first migration, forward, restart, console line or
// load report, the swap store for the first image, the latency histogram
// and every kernel map for their first write, and the obs plane renders
// names only in Snapshot. The budget (800 B) fails on the Kernel growing
// one size class (640 B) or on any new per-machine allocation of 64 B or
// more at boot. Before the cold record the Kernel took 768 B and the swap
// store 96 B (1.06 KB a machine); before the counter split, 1 280 B for
// the Kernel alone (1.58 KB); registering each machine's rows by name and
// closure, with a histogram and eight empty maps at boot, cost 3.8 KB.
// (The race detector's shadow allocations inflate HeapAlloc, hence the
// build tag.)
func TestPerMachineHeapBudget(t *testing.T) {
	const machines, budget = 1000, 800
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := New(Options{Machines: machines, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (after.HeapAlloc - before.HeapAlloc) / machines
	t.Logf("%d B of live heap per machine", per)
	if per > budget {
		t.Errorf("a machine costs %d B of live heap, budget %d B", per, budget)
	}
	if n := len(c.ObsSnapshot().Metrics); n != 61*machines+26 {
		t.Errorf("snapshot has %d metrics, want %d", n, 61*machines+26)
	}
}
