//go:build !race

package trace

import (
	"runtime"
	"strconv"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/sim"
)

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRingBudget pins what a full default ring costs and what its string
// table keeps. 64k records whose ArgStr repeats cost 2 MiB, their slots,
// plus at most 64 KiB for the chunk list, the table and the Tracer (the
// race detector's shadow allocations would inflate the figure, hence the
// build tag). Four rings' worth of details that never repeat leave the
// table holding exactly the retained records' strings, each record
// rendering its own.
func TestRingBudget(t *testing.T) {
	var now sim.Time
	before := liveHeap()
	tr := New(clockAt(&now), 0)
	pid := addr.ProcessID{Creator: 2, Local: 7}
	for i := 0; i < 65536; i++ {
		now = sim.Time(i)
		tr.Log(2, siteWide, "resident", PID(pid), Int(i), Int(2), Machine(3))
	}
	if got, limit := liveHeap()-before, uint64(2<<20+64<<10); got > limit {
		t.Errorf("a full 64k ring of one repeated string holds %d bytes of live heap, want at most %d", got, limit)
	}
	if n, live := len(tr.strs.e), tr.liveStrings(); n > 2 || live != 1 {
		t.Errorf("one repeated string took %d table entries, %d live; want 1 live", n, live)
	}
	if tr.Overwritten() != 0 || tr.held() != 65536 {
		t.Fatalf("ring holds %d records and dropped %d, want 65536 and 0", tr.held(), tr.Overwritten())
	}

	const fed = 4 * 65536
	for i := 0; i < fed; i++ {
		now = sim.Time(i)
		tr.Emit(1, CatConsole, "print", "line "+strconv.Itoa(i))
	}
	if live, indexed := tr.liveStrings(), len(tr.strs.index); live != tr.held() || indexed != live {
		t.Errorf("the table holds %d strings (%d indexed) for %d retained records", live, indexed, tr.held())
	}
	if n := len(tr.strs.e); n > tr.held()+1 {
		t.Errorf("the table grew to %d entries for a ring of %d", n, tr.held())
	}
	for j, r := range tr.Records() {
		if want := "line " + strconv.Itoa(fed-tr.held()+j); r.Detail() != want {
			t.Fatalf("record %d renders %q, want %q", j, r.Detail(), want)
		}
	}
	runtime.KeepAlive(tr)
}
