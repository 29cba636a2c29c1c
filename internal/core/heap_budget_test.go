//go:build !race

package core

import (
	"runtime"
	"testing"
)

// TestPerMachineHeapBudget pins what one simulated machine costs in live
// heap once a 1000-machine cluster is built: about 1.06 KB. Most of it is
// the Kernel struct (one 768-byte allocation), then the swap store (96 B),
// the network's per-machine state (56 + 40 B), the envelope pool (48 B),
// the cluster's tables (44 B) and the one obs.Rows value per kernel
// (16 B). The kernel's counters a job-only machine never writes sit in a
// cold record made at the first migration, forward or restart, and the obs
// plane renders names only in Snapshot; its latency histogram and every
// kernel map wait for their first write too. The budget (1 200 B) fails
// on the Kernel growing one size class (896 B) or any new per-machine
// allocation of 144 B or more at boot. Before the counter split the
// Kernel alone took 1 280 B (1.58 KB a machine); registering each
// machine's rows by name and closure, with a histogram and eight empty
// maps at boot, cost 3.8 KB. (The race detector's shadow allocations
// inflate HeapAlloc, hence the build tag.)
func TestPerMachineHeapBudget(t *testing.T) {
	const machines, budget = 1000, 1200
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
