package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, "c", func() { got = append(got, 3) })
	e.At(10, "a", func() { got = append(got, 1) })
	e.At(20, "b", func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, "tie", func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order wrong at %d: got %d", i, v)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(100, "x", func() {
		at = e.Now()
		e.After(50, "y", func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, "x", func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is safe
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("fired count = %d, want 0", e.Fired())
	}
}

// TestCountAs: an event that reports the work of k events counts k in Fired
// and in Run's return, once in OnFire; k = 0 and k = 1 count it once.
func TestCountAs(t *testing.T) {
	e := NewEngine(1)
	seen := 0
	e.OnFire = func(string, Time) { seen++ }
	e.At(10, "batch", func() { e.CountAs(3) })
	e.At(20, "none", func() { e.CountAs(0) })
	e.At(30, "one", func() { e.CountAs(1) })
	if n := e.Run(); n != 5 || e.Fired() != 5 || seen != 3 {
		t.Fatalf("Run() = %d, Fired() = %d, OnFire saw %d; want 5, 5, 3", n, e.Fired(), seen)
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	e := NewEngine(1)
	var at Time = 999
	e.At(100, "x", func() {
		e.At(1, "past", func() { at = e.Now() })
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, tm := range []Time{10, 20, 30, 40} {
		tm := tm
		e.At(tm, "x", func() { got = append(got, tm) })
	}
	n := e.RunUntil(25)
	if n != 2 || len(got) != 2 {
		t.Fatalf("RunUntil(25) fired %d events (%v), want 2", n, got)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v after RunUntil, want 25 (the deadline)", e.Now())
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("remaining events not fired: %v", got)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("idle clock = %v, want 500", e.Now())
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), "x", func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("Halt did not stop Run: %d events fired", count)
	}
	// Run again resumes.
	e.Run()
	if count != 10 {
		t.Fatalf("resume after Halt fired %d total, want 10", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var log []Time
		var rec func(depth int)
		rec = func(depth int) {
			log = append(log, e.Now())
			if depth < 3 {
				d := Time(e.Rand().Intn(100))
				e.After(d, "r", func() { rec(depth + 1) })
				e.After(d+1, "r2", func() { rec(depth + 1) })
			}
		}
		e.At(0, "root", func() { rec(0) })
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: any set of scheduled times fires in sorted order.
func TestFiringOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		for _, tm := range times {
			tm := Time(tm)
			e.At(tm, "p", func() { fired = append(fired, tm) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine(1)
	a := e.At(1, "a", func() {})
	e.At(2, "b", func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Fatalf("pending after cancel = %d, want 1", e.Pending())
	}
}

func TestTimeString(t *testing.T) {
	for _, tc := range []struct {
		t    Time
		want string
	}{
		{1500000, "1.500000s"},
		{0, "0.000000s"},
		{1, "0.000001s"},
		{999999, "0.999999s"},
		{12345678901, "12345.678901s"},
	} {
		if s := tc.t.String(); s != tc.want {
			t.Fatalf("Time(%d).String = %q, want %q", uint64(tc.t), s, tc.want)
		}
	}
}

// A handle held past its event's firing must go stale: cancelling it cannot
// touch whatever event has since recycled the arena slot.
func TestStaleHandleCancelIsSafe(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	h := e.At(1, "a", func() { fired++ })
	e.Run()
	// "a" fired; its arena slot is free and will be reused by "b".
	e.At(2, "b", func() { fired++ })
	e.Cancel(h) // stale handle: must be a no-op
	e.Run()
	if fired != 2 {
		t.Fatalf("stale Cancel hit a recycled slot: fired %d events, want 2", fired)
	}
}

// The zero Event is "no event" and must be safe to Cancel, including on a
// fresh engine with an empty arena.
func TestCancelZeroEvent(t *testing.T) {
	e := NewEngine(1)
	e.Cancel(Event{})
	ok := false
	e.At(1, "x", func() { ok = true })
	e.Cancel(Event{})
	e.Run()
	if !ok {
		t.Fatal("zero-Event Cancel affected a real event")
	}
}

// Pending must stay exact through heavy schedule/cancel/fire churn (it is a
// live counter now, not a queue scan).
func TestPendingThroughChurn(t *testing.T) {
	e := NewEngine(3)
	var evs []Event
	for i := 0; i < 1000; i++ {
		evs = append(evs, e.At(Time(i%50), "churn", func() {}))
	}
	for i := 0; i < 1000; i += 3 {
		e.Cancel(evs[i])
	}
	e.Cancel(evs[0]) // double-cancel must not double-decrement
	want := 1000 - 334
	if got := e.Pending(); got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	for e.Step() {
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// Arena slots must be recycled: sustained schedule/fire churn cannot grow
// the arena beyond the peak number of simultaneously pending events.
func TestArenaSlotReuse(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 100000; i++ {
		e.At(e.Now()+1, "spin", func() {})
		e.Step()
	}
	if n := len(e.arena); n > 4 {
		t.Fatalf("arena grew to %d slots under 1-deep churn, want ≤ 4", n)
	}
}

// Cancelled entries must be recycled too, not only when the clock reaches
// them: a watchdog armed and cancelled around every operation (the kernels'
// migration pattern) cannot grow the arena beyond a small multiple of the
// live events, and the reclaim leaves the live ones in firing order.
func TestCancelledEntriesAreReclaimed(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	for i, d := range []Time{40e6, 5, 30e6, 500, 70, 3000, 30e6, 1 << 40} { // every wheel level the kernels reach, and one far above
		e.After(d, "live", func() { fired = append(fired, i) })
	}
	for i := 0; i < 100000; i++ {
		e.Cancel(e.After(30e6, "watchdog", func() { t.Error("a cancelled watchdog fired") }))
		if i%1000 == 0 { // and some the sweep finds at level 0, beside live entries
			e.Cancel(e.After(5, "soon", func() { t.Error("a cancelled timer fired") }))
		}
	}
	if n := len(e.arena); n > 64 {
		t.Fatalf("arena grew to %d slots with 8 live events under arm-and-cancel churn, want ≤ 64", n)
	}
	if e.Pending() != 8 {
		t.Fatalf("Pending = %d, want 8", e.Pending())
	}
	e.Run()
	if want := []int{1, 4, 3, 5, 2, 6, 0, 7}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestWeakEventsDoNotKeepRunAlive(t *testing.T) {
	e := NewEngine(1)
	weakFired := 0
	var arm func()
	arm = func() {
		e.AfterWeak(10, "tick", func() { weakFired++; arm() })
	}
	arm()
	e.At(35, "strong", func() {})
	e.Run()
	// Weak ticks at 10, 20, 30 fire while the strong event keeps the
	// run alive; the tick at 40+ must not.
	if weakFired != 3 {
		t.Fatalf("weak fired %d times, want 3", weakFired)
	}
	if e.Now() != 35 {
		t.Fatalf("clock %v, want 35", e.Now())
	}
	// RunUntil still fires weak events on its own.
	e.RunUntil(65)
	if weakFired != 6 {
		t.Fatalf("RunUntil fired weak %d total, want 6", weakFired)
	}
}

func TestCancelWeakAndStrongAccounting(t *testing.T) {
	e := NewEngine(1)
	s := e.At(10, "s", func() {})
	e.AfterWeak(5, "w", func() {})
	e.Cancel(s)
	// With the strong event cancelled, Run must return immediately
	// without firing the weak one.
	if n := e.Run(); n != 0 {
		t.Fatalf("Run fired %d events", n)
	}
}

// TestRandMadeAtFirstUse: NewEngine makes no PRNG (a math/rand source is
// over 5 KB, and only the VM's rand syscall draws), and the PRNG the first
// Rand makes draws the stream rand.NewSource(seed) would have.
func TestRandMadeAtFirstUse(t *testing.T) {
	const n = 64
	var ms0, ms1 runtime.MemStats
	engines := make([]*Engine, n)
	runtime.ReadMemStats(&ms0)
	for i := range engines {
		engines[i] = NewEngine(int64(i))
	}
	runtime.ReadMemStats(&ms1)
	if per := (ms1.TotalAlloc - ms0.TotalAlloc) / n; per >= 1024 {
		t.Errorf("NewEngine allocates %d bytes, want under 1 KB", per)
	}
	for _, seed := range []int64{1, 2, -7} {
		e, ref := NewEngine(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if got, want := e.Rand().Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d, draw %d: %d, want %d", seed, i, got, want)
			}
		}
	}
}
