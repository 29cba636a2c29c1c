//go:build !race

package core

import (
	"runtime"
	"testing"
)

// TestPerMachineHeapBudget pins what one simulated machine costs in live
// heap once a 1000-machine cluster is built. The floor, with no obs
// registration at all, is about 2.0 KB; registering each counter as its own
// closure, name and map entry costs 13.5 KB, so the budget holds the plane to
// one entry per struct. (The race detector's shadow allocations inflate
// HeapAlloc, hence the build tag.)
func TestPerMachineHeapBudget(t *testing.T) {
	const machines, budget = 1000, 4500
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
