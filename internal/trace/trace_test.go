package trace

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"demosmp/internal/addr"
	"demosmp/internal/sim"
)

func clockAt(t *sim.Time) func() sim.Time { return func() sim.Time { return *t } }

// The test package's own sites, registered at init as a kernel's are.
var (
	siteN        = NewSite(CatMigrate, "step2", "n=%d", ArgInt)
	siteE        = NewSite(CatProc, "e", "n=%d", ArgInt)
	siteAccepted = NewSite(CatMigrate, "accepted", "%v by %v after %d tries", ArgPID, ArgMachine, ArgInt)
	siteArrow    = NewSite(CatForward, "forward", "%v -> %v", ArgPID, ArgMachine)
	siteWide     = NewSite(CatData, "e", "%v %v: %dB in %d packets -> %v", ArgPID, ArgStr, ArgInt, ArgInt, ArgMachine)
	siteKernel   = NewSite(CatProc, "k", "%v", ArgPID)
	siteInts     = NewSite(CatProc, "ints", "%d %d %d %d", ArgInt, ArgInt, ArgInt, ArgInt)
	siteMixed    = NewSite(CatProc, "mixed", "%v %v %d %d %d", ArgPID, ArgMachine, ArgInt, ArgInt, ArgInt)
	siteStrLast  = NewSite(CatProc, "full", "%v %v %d %d %s", ArgPID, ArgMachine, ArgInt, ArgInt, ArgStr)
)

func TestEmitAndQuery(t *testing.T) {
	var now sim.Time
	tr := New(clockAt(&now), 0)
	tr.Emit(1, CatMigrate, "step1", "detail-a")
	now = 50
	tr.Emit(2, CatForward, "fwd", "detail-b")
	tr.Log(1, siteN, "", Int(7))

	if got := len(tr.Records()); got != 3 {
		t.Fatalf("records = %d", got)
	}
	if evs := tr.Events(CatMigrate); len(evs) != 2 || evs[0] != "step1" || evs[1] != "step2" {
		t.Fatalf("migrate events: %v", evs)
	}
	if evs := tr.Events(CatAll); len(evs) != 3 {
		t.Fatalf("all events: %v", evs)
	}
	r, ok := tr.Find("fwd")
	if !ok || r.T != 50 || r.Machine != 2 {
		t.Fatalf("Find: %+v %v", r, ok)
	}
	if _, ok := tr.Find("nope"); ok {
		t.Fatal("found nonexistent event")
	}
	if n := tr.Count("step1"); n != 1 {
		t.Fatalf("Count = %d", n)
	}
	if fr := tr.Filter(CatForward); len(fr) != 1 || fr[0].Detail() != "detail-b" {
		t.Fatalf("Filter: %v", fr)
	}
	// Emit's site is its (category, event) pair: the same event name
	// under another category, straight after, is a record of that category.
	tr.Emit(3, CatForward, "fwd", "c")
	tr.Emit(3, CatProc, "fwd", "d")
	if fwd, proc := tr.Filter(CatForward), tr.Filter(CatProc); len(fwd) != 2 || len(proc) != 1 || proc[0].Detail() != "d" {
		t.Fatalf("Filter after one event under two categories: forward %v, proc %v", fwd, proc)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, CatProc, "x", "y") // must not panic
	tr.Log(1, siteE, "", Int(1))
	if tr.Records() != nil || tr.Overwritten() != 0 || tr.Events(CatAll) != nil {
		t.Fatal("nil tracer returned records")
	}
	if tr.String() != "" {
		t.Fatal("nil tracer stringified")
	}
	if _, ok := tr.Find("x"); ok {
		t.Fatal("nil tracer found something")
	}
}

// TestRingBound pins the ring: it keeps exactly the newest max records, in
// emission order, across several wrap-arounds, every query walks them
// oldest first, and Overwritten counts every record it dropped.
func TestRingBound(t *testing.T) {
	var now sim.Time
	tr := New(clockAt(&now), 10)
	for i := 0; i < 37; i++ {
		now = sim.Time(i)
		tr.Log(1, siteE, "", Int(i))
		recs := tr.Records()
		want := min(i+1, 10)
		if len(recs) != want {
			t.Fatalf("after %d emits: %d records retained, want %d", i+1, len(recs), want)
		}
		if got := tr.Overwritten(); got != uint64(i+1-want) {
			t.Fatalf("after %d emits: Overwritten = %d, want %d", i+1, got, i+1-want)
		}
		for j, r := range recs {
			if wantT := sim.Time(i + 1 - want + j); r.T != wantT {
				t.Fatalf("after %d emits: record %d has T=%d, want %d", i+1, j, r.T, wantT)
			}
		}
	}
	if n := tr.Count("e"); n != 10 {
		t.Fatalf("Count = %d, want 10", n)
	}
	if r, ok := tr.Find("e"); !ok || r.Detail() != "n=27" {
		t.Fatalf("Find returned %v, want the oldest retained record (n=27)", r)
	}
	if lines := strings.Split(strings.TrimSpace(tr.String()), "\n"); len(lines) != 10 ||
		!strings.HasSuffix(lines[0], "n=27") || !strings.HasSuffix(lines[9], "n=36") {
		t.Fatalf("String out of order:\n%s", tr)
	}
}

// TestSink: the sink receives every record as it is emitted — eager and
// deferred alike, rendering the same text the ring's copy renders — and
// keeps receiving after the ring has started dropping.
func TestSink(t *testing.T) {
	var now sim.Time
	var got []Record
	tr := New(clockAt(&now), 2)
	tr.SetSink(func(r Record) { got = append(got, r) })
	tr.Emit(3, CatConsole, "print", "hello")
	if len(got) != 1 || got[0].Machine != 3 || got[0].Detail() != "hello" {
		t.Fatalf("sink saw %+v", got)
	}
	now = 7
	pid := addr.ProcessID{Creator: 2, Local: 9}
	tr.Log(4, siteAccepted, "", PID(pid), Machine(5), Int(-2))
	if len(got) != 2 || got[1].T != 7 || got[1].Machine != 4 || got[1].Cat() != CatMigrate || got[1].Event() != "accepted" {
		t.Fatalf("sink saw %+v", got)
	}
	if d, want := got[1].Detail(), fmt.Sprintf("%v by %v after %d tries", pid, addr.MachineID(5), -2); d != want {
		t.Fatalf("sink rendered the deferred record as %q, want %q", d, want)
	}
	if ring := tr.Records(); got[1].String() != ring[1].String() {
		t.Fatalf("sink's copy renders %q, the ring's %q", got[1], ring[1])
	}
	tr.Emit(3, CatConsole, "print", "again")
	if len(got) != 3 || len(tr.Records()) != 2 {
		t.Fatalf("sink saw %d records, ring holds %d; want 3 and 2", len(got), len(tr.Records()))
	}
}

func TestStringRendering(t *testing.T) {
	var now sim.Time = 1500000
	tr := New(clockAt(&now), 0)
	tr.Emit(1, CatMigrate, "step1", "p1.1")
	s := tr.String()
	if !strings.Contains(s, "1.500000s") || !strings.Contains(s, "step1") {
		t.Fatalf("render: %q", s)
	}
	// The whole line, for an eager and a deferred record: time, machine,
	// category, event and detail in fixed-width columns.
	tr.Log(2, siteArrow, "", PID(addr.ProcessID{Creator: 1, Local: 1}), Machine(3))
	want := fmt.Sprintf("%-12v %-4v %-10s %-32s %s\n%-12v %-4v %-10s %-32s %s\n",
		now, addr.MachineID(1), "migrate", "step1", "p1.1",
		now, addr.MachineID(2), "forward", "forward", "p1.1 -> m3")
	if s := tr.String(); s != want {
		t.Fatalf("render:\n%q\nwant\n%q", s, want)
	}
}

// TestRingGrowsLazily: trace.New allocates no ring and no string table, and
// a tracer that never fills up holds little more than it was given: 100
// records cost at most 256 slots' worth of memory.
func TestRingGrowsLazily(t *testing.T) {
	var now sim.Time
	var tr *Tracer
	if n := testing.AllocsPerRun(10, func() { tr = New(clockAt(&now), 0) }); n > 2 { // the Tracer and the clock closure
		t.Fatalf("New allocates %v objects: the ring must not be among them", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		tr.Emit(1, CatProc, "e", "")
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*unsafe.Sizeof(slot{})); got > limit {
		t.Fatalf("100 records allocated %d bytes, want at most 256 slots' worth (%d)", got, limit)
	}
	if n := len(tr.Records()); n != 100 {
		t.Fatalf("%d records retained, want 100", n)
	}
}

// TestRingWrapAcrossChunks wraps a ring whose size is no multiple of any
// chunk size (100 = 1+2+4+8+16+32+37) two and a half times: every query
// still walks exactly the newest 100 records, oldest first, across both the
// chunk seams and the ring's own, and the sink has seen them all.
func TestRingWrapAcrossChunks(t *testing.T) {
	const size, emits = 100, 250
	var now sim.Time
	tr := New(clockAt(&now), size)
	sunk := 0
	tr.SetSink(func(r Record) {
		if r.T != sim.Time(sunk) {
			t.Fatalf("sink saw T=%d as its record %d", r.T, sunk)
		}
		sunk++
	})
	cats := [...]Site{siteE, siteArrow, siteN}
	for i := 0; i < emits; i++ {
		now = sim.Time(i)
		if s := cats[i%3]; s == siteArrow {
			tr.Log(1, s, "", PID(addr.ProcessID{Creator: 1, Local: addr.LocalUID(i)}), Machine(2))
		} else {
			tr.Log(1, s, "", Int(i))
		}
		first := max(0, i+1-size)
		recs := tr.Records()
		if len(recs) != i+1-first {
			t.Fatalf("after %d emits: %d records retained, want %d", i+1, len(recs), i+1-first)
		}
		for j, r := range recs {
			if r.T != sim.Time(first+j) {
				t.Fatalf("after %d emits: record %d has T=%d, want %d", i+1, j, r.T, first+j)
			}
		}
	}
	if sunk != emits || tr.Overwritten() != emits-size {
		t.Fatalf("sink saw %d of %d records; Overwritten = %d, want %d", sunk, emits, tr.Overwritten(), emits-size)
	}
	first := emits - size
	events := tr.Events(CatAll)
	lines := strings.Split(strings.TrimSpace(tr.String()), "\n")
	if len(events) != size || len(lines) != size {
		t.Fatalf("Events returned %d names and String %d lines, want %d", len(events), len(lines), size)
	}
	for j := range events {
		i := first + j
		if want := cats[i%3].Event(); events[j] != want || !strings.Contains(lines[j], want) {
			t.Fatalf("position %d: event %q, line %q; want %s", j, events[j], lines[j], want)
		}
		if r := tr.Records()[j]; r.T != sim.Time(i) {
			t.Fatalf("position %d holds T=%d, want %d", j, r.T, i)
		}
	}
	for c, s := range cats {
		var want []int
		for i := first; i < emits; i++ {
			if i%3 == c {
				want = append(want, i)
			}
		}
		filtered := tr.Filter(s.Cat())
		if got := tr.Events(s.Cat()); len(got) != len(want) || len(filtered) != len(want) {
			t.Fatalf("%v: Events %d, Filter %d records, want %d", s.Cat(), len(got), len(filtered), len(want))
		}
		for j, r := range filtered {
			if r.T != sim.Time(want[j]) || r.Cat() != s.Cat() || r.Event() != s.Event() {
				t.Fatalf("%v: Filter position %d is %v, want T=%d", s.Cat(), j, r, want[j])
			}
		}
	}
	if r, ok := tr.Find(siteE.Event()); !ok || r.T > sim.Time(first+2) {
		t.Fatalf("Find(oldest e) = %v, %v", r, ok)
	}
}

// TestDeferredDetail: a deferred record renders exactly what fmt renders
// from the values its arguments were built from, and an eager detail is
// never treated as a format.
func TestDeferredDetail(t *testing.T) {
	var now sim.Time
	tr := New(clockAt(&now), 0)
	pid := addr.ProcessID{Creator: 65535, Local: 65535}
	tr.Log(2, siteWide, "swappable", PID(pid), Int(math.MinInt32), Int(math.MaxInt32), Machine(65535))
	tr.Emit(2, CatConsole, "print", "100%d done %v")
	tr.Log(2, siteKernel, "", PID(addr.KernelPID(7)))
	recs := tr.Records()
	if got, want := recs[0].Detail(), fmt.Sprintf("%v %v: %dB in %d packets -> %v",
		pid, "swappable", math.MinInt32, math.MaxInt32, addr.MachineID(65535)); got != want {
		t.Fatalf("deferred detail %q, want %q", got, want)
	}
	if got := recs[1].Detail(); got != "100%d done %v" {
		t.Fatalf("eager detail was reformatted: %q", got)
	}
	if got := recs[2].Detail(); got != "kernel(m7)" {
		t.Fatalf("kernel pid rendered %q", got)
	}
}

// TestSlotLayout pins the ring's per-record footprint: 64k of these is the
// tracer's whole heap cost, and a slot that grows must say why. The time,
// machine, site id and five argument words fill half a cache line, and no
// field is a pointer, so the collector never scans the ring: the one string
// is a reference into the tracer's string table, and the category, event
// name and format live in the site.
func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got > 32 {
		t.Fatalf("slot is %d bytes, want at most 32", got)
	}
	var pointerful func(reflect.Type) bool
	pointerful = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if pointerful(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return pointerful(ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		}
		return true
	}
	ty := reflect.TypeOf(slot{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); pointerful(f.Type) {
			t.Errorf("slot field %s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}

// TestSiteArgumentLimits: the widest shapes that fit a record (five words,
// the ArgStr's reference counting as one) render, and an int at either end
// of the int32 range renders as itself. One more string or word panics at
// registration instead of being dropped, an Int outside the int32 range
// panics instead of wrapping, and Log panics when handed a different number
// of arguments than its site takes.
func TestSiteArgumentLimits(t *testing.T) {
	var now sim.Time
	tr := New(clockAt(&now), 0)
	big, small := Int(math.MaxInt32), Int(math.MinInt32)
	tr.Log(1, siteInts, "", big, small, big, small)
	tr.Log(1, siteMixed, "", PID(addr.ProcessID{Creator: 9, Local: 8}), Machine(7), big, small, Int(0))
	tr.Log(1, siteStrLast, "end", PID(addr.ProcessID{Creator: 9, Local: 8}), Machine(7), big, small)
	recs := tr.Records()
	if got, want := recs[0].Detail(), fmt.Sprintf("%d %d %d %d", math.MaxInt32, math.MinInt32, math.MaxInt32, math.MinInt32); got != want {
		t.Fatalf("four ints rendered %q, want %q", got, want)
	}
	if got, want := recs[1].Detail(), fmt.Sprintf("p9.8 m7 %d %d 0", math.MaxInt32, math.MinInt32); got != want {
		t.Fatalf("pid, machine and three ints rendered %q, want %q", got, want)
	}
	if got, want := recs[2].Detail(), fmt.Sprintf("p9.8 m7 %d %d end", math.MaxInt32, math.MinInt32); got != want {
		t.Fatalf("four words and a string rendered %q, want %q", got, want)
	}
	for name, kinds := range map[string][]ArgKind{
		"two strings":             {ArgStr, ArgStr},
		"six words":               {ArgPID, ArgInt, ArgInt, ArgInt, ArgInt, ArgMachine},
		"five words and a string": {ArgPID, ArgMachine, ArgInt, ArgInt, ArgInt, ArgStr},
		"unknown kind":            {ArgKind(0)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSite accepted %s", name)
				}
			}()
			NewSite(CatProc, "e", "", kinds...)
		}()
	}
	for _, n := range []int{math.MaxInt32 + 1, math.MinInt32 - 1, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Int accepted %d", n)
				}
			}()
			Int(n)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Log accepted three arguments for a four-argument site")
		}
	}()
	tr.Log(1, siteInts, "", big, small, big)
}

// TestSitesStayOffTheHeap: registering a site allocates nothing (the
// registry is a fixed array), an identical declaration is the same site and
// takes no slot, and Emit allocates nothing once its event has a site. The
// sites it registers are taken out again, so the test can run any number of
// times in one process.
func TestSitesStayOffTheHeap(t *testing.T) {
	n0 := nSites
	t.Cleanup(func() {
		siteMu.Lock()
		defer siteMu.Unlock()
		for s := n0; s < nSites; s++ {
			sites[s] = siteInfo{}
		}
		nSites = n0
	})
	var names [11]string // AllocsPerRun's warm-up call, then 10
	for i := range names {
		names[i] = "off-heap-" + strconv.Itoa(i)
	}
	i := 0
	if n := testing.AllocsPerRun(10, func() { NewSite(CatProc, names[i], "%v %s", ArgPID, ArgStr); i++ }); n != 0 {
		t.Fatalf("NewSite allocates %v objects", n)
	}
	if nSites != n0+len(names) {
		t.Fatalf("%d calls registered %d sites", len(names), nSites-n0)
	}
	if s := NewSite(CatProc, names[0], "%v %s", ArgPID, ArgStr); s != Site(n0) || nSites != n0+len(names) {
		t.Fatalf("a repeated declaration is site %d of %d, want %d of %d", s, nSites, n0, n0+len(names))
	}
	if s := NewSite(CatProc, names[0], "%v %v", ArgPID, ArgStr); s == Site(n0) {
		t.Fatal("a declaration with another format is the same site")
	}
	var now sim.Time
	tr := New(clockAt(&now), 4)
	tr.Emit(1, CatProc, "dyn-a", "x")
	tr.Emit(1, CatProc, "dyn-b", "y")
	if n := testing.AllocsPerRun(10, func() {
		tr.Emit(1, CatProc, "dyn-a", "x")
		tr.Emit(1, CatProc, "dyn-b", "y")
	}); n != 0 {
		t.Fatalf("Emit of registered events allocates %v objects", n)
	}
	if evs := tr.Events(CatProc); len(evs) != 4 || evs[2] != "dyn-a" || evs[3] != "dyn-b" {
		t.Fatalf("events %v", evs)
	}
}

// TestStringTableKeepsOneEntryAString: strings that interleave (the states
// and region names of a migration's records) each keep one table entry
// however they alternate, a string the ring no longer names leaves the
// table at the write that overwrites its last record, and every retained
// record renders its own string.
func TestStringTableKeepsOneEntryAString(t *testing.T) {
	const size = 10
	var now sim.Time
	tr := New(clockAt(&now), size)
	names := []string{"waiting", "program", "swappable", "resident", "user", "ready"}
	pid := addr.ProcessID{Creator: 1, Local: 2}
	want := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		s := names[i%len(names)]
		if i >= 200 {
			s = names[i%2] // the last hundred name only two
		}
		if i%7 == 0 {
			s = "" // some records name no string
		}
		now = sim.Time(i)
		tr.Log(1, siteWide, s, PID(pid), Int(i), Int(0), Machine(2))
		want = append(want, s)
		distinct := map[string]bool{}
		for _, w := range want[max(0, len(want)-size):] {
			if w != "" {
				distinct[w] = true
			}
		}
		if live := tr.liveStrings(); live != len(distinct) || len(tr.strs.index) != live {
			t.Fatalf("after %d writes the table holds %d strings (%d indexed), the ring names %d", i+1, live, len(tr.strs.index), len(distinct))
		}
	}
	if n := len(tr.strs.e); n > len(names)+2 {
		t.Errorf("%d entries for %d strings: a string took a second entry", n, len(names))
	}
	for j, r := range tr.Records() {
		i := 300 - size + j
		if got, w := r.Detail(), fmt.Sprintf("%v %v: %dB in %d packets -> %v", pid, want[i], i, 0, addr.MachineID(2)); got != w {
			t.Fatalf("record %d renders %q, want %q", i, got, w)
		}
	}
}
