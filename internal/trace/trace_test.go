package trace

import (
	"strings"
	"testing"

	"demosmp/internal/sim"
)

func clockAt(t *sim.Time) func() sim.Time { return func() sim.Time { return *t } }

func TestEmitAndQuery(t *testing.T) {
	var now sim.Time
	tr := New(clockAt(&now), 0)
	tr.Emit(1, CatMigrate, "step1", "detail-a")
	now = 50
	tr.Emit(2, CatForward, "fwd", "detail-b")
	tr.Emitf(1, CatMigrate, "step2", "n=%d", 7)

	if got := len(tr.Records()); got != 3 {
		t.Fatalf("records = %d", got)
	}
	if evs := tr.Events(CatMigrate); len(evs) != 2 || evs[0] != "step1" || evs[1] != "step2" {
		t.Fatalf("migrate events: %v", evs)
	}
	if evs := tr.Events(""); len(evs) != 3 {
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
	if fr := tr.Filter(CatForward); len(fr) != 1 || fr[0].Detail != "detail-b" {
		t.Fatalf("Filter: %v", fr)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, CatProc, "x", "y") // must not panic
	tr.Emitf(1, CatProc, "x", "%d", 1)
	if tr.Records() != nil || tr.Events("") != nil {
		t.Fatal("nil tracer returned records")
	}
	if tr.String() != "" {
		t.Fatal("nil tracer stringified")
	}
	if _, ok := tr.Find("x"); ok {
		t.Fatal("nil tracer found something")
	}
}

func TestRingBound(t *testing.T) {
	var now sim.Time
	tr := New(clockAt(&now), 10)
	for i := 0; i < 100; i++ {
		tr.Emit(1, CatProc, "e", "")
	}
	if got := len(tr.Records()); got > 10 {
		t.Fatalf("ring grew to %d", got)
	}
	// Newest records survive.
	if n := tr.Count("e"); n == 0 {
		t.Fatal("everything dropped")
	}
}

func TestSink(t *testing.T) {
	var now sim.Time
	var got []Record
	tr := New(clockAt(&now), 0)
	tr.SetSink(func(r Record) { got = append(got, r) })
	tr.Emit(3, CatConsole, "print", "hello")
	if len(got) != 1 || got[0].Machine != 3 || got[0].Detail != "hello" {
		t.Fatalf("sink saw %+v", got)
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
}
