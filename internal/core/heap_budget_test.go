//go:build !race

package core

import (
	"runtime"
	"testing"
)

// TestPerMachineHeapBudget pins what one simulated machine costs in live
// heap once a 1000-machine cluster is built: about 1.6 KB, most of it the
// Kernel struct itself (one 1280-byte allocation). The obs plane holds the
// machine as one interface value and renders its rows, names included, only
// in Snapshot; its latency histogram and every kernel map wait for their
// first write. Registering each machine's rows by name and closure, with a
// histogram and eight empty maps at boot, cost 3.8 KB. (The race detector's
// shadow allocations inflate HeapAlloc, hence the build tag.)
func TestPerMachineHeapBudget(t *testing.T) {
	const machines, budget = 1000, 2000
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
