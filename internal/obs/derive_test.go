package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"demosmp/internal/sim"
)

// sampleMe exercises every rule of the derivation: default snake-casing
// (acronyms included), the three tag forms, and everything that is ignored.
type sampleMe struct {
	Spawned  uint64
	CPUBusy  sim.Time
	MsgsIn   uint32
	HTTPReqs uint16
	Renamed  uint64 `obs:"busy_us"`
	Level    uint64 `obs:",gauge"`
	Depth    uint8  `obs:"queue.depth,gauge"`
	Hidden   uint64 `obs:"-"`
	Signed   int64
	Label    string
	ByOp     [4]uint64
	ByKind   map[int]uint64
	Nested   struct{ Inner uint64 }
	private  uint64
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestSampleStruct: a struct's rows as AppendStruct derives them, read
// through the pointer at snapshot time.
func TestSampleStruct(t *testing.T) {
	t.Run("derive", sampleStructDerive)
	t.Run("new-field", sampleStructNewField)
	t.Run("panics", sampleStructPanics)
	t.Run("concurrent", sampleStructConcurrent)
}

func sampleStructDerive(t *testing.T) {
	s := sampleMe{Spawned: 1, CPUBusy: 2, MsgsIn: 3, HTTPReqs: 4, Renamed: 5, Level: 6, Depth: 7,
		Hidden: 8, Signed: 9, ByOp: [4]uint64{10, 11, 12, 13}, private: 14}
	r := NewRegistry()
	r.AddRows(structRows("k.", &s))

	text := func() string {
		var b strings.Builder
		for _, m := range r.Snapshot(0).Metrics {
			fmt.Fprintf(&b, "%s %s %d\n", m.Name, m.Kind, m.Value)
		}
		return b.String()
	}
	want := `k.busy_us counter 5
k.cpu_busy counter 2
k.http_reqs counter 4
k.level gauge 6
k.msgs_in counter 3
k.queue.depth gauge 7
k.spawned counter 1
`
	if got := text(); got != want {
		t.Fatalf("derived metrics:\n%s\nwant:\n%s", got, want)
	}

	// Values are read through the pointer at snapshot time.
	s.Spawned, s.Depth = 100, 70
	snap := r.Snapshot(0)
	if snap.Value("k.spawned") != 100 || snap.Value("k.queue.depth") != 70 {
		t.Errorf("not read live: %+v", snap.Metrics)
	}

	// AppendStruct appends in declaration order.
	var names []string
	for _, m := range AppendStruct([]Metric{{Name: "x.before"}}, "x.", &s) {
		names = append(names, m.Name)
	}
	if got := strings.Join(names, " "); got != "x.before x.spawned x.cpu_busy x.msgs_in x.http_reqs x.busy_us x.level x.queue.depth" {
		t.Errorf("AppendStruct order: %s", got)
	}
}

// A uint64 field added to a rendered struct is a metric with no other edit:
// the wider type's snapshot has exactly the one extra row.
func sampleStructNewField(t *testing.T) {
	type before struct{ Frames, Bytes uint64 }
	type after struct{ Frames, Bytes, LateDrops uint64 }
	ra, rb := NewRegistry(), NewRegistry()
	rb.AddRows(structRows("netw.", &before{}))
	ra.AddRows(structRows("netw.", &after{LateDrops: 3}))
	if n := len(rb.Snapshot(0).Metrics); n != 2 {
		t.Fatalf("before: %d metrics", n)
	}
	sa := ra.Snapshot(0)
	if len(sa.Metrics) != 3 || sa.Value("netw.late_drops") != 3 {
		t.Fatalf("after: %+v", sa.Metrics)
	}
}

func sampleStructPanics(t *testing.T) {
	var s sampleMe
	// A derived name exists only in Snapshot, so that is where a collision
	// surfaces — whichever owner was registered first.
	mustPanic(t, "struct then struct", func() {
		r := NewRegistry()
		r.AddRows(structRows("k.", &s))
		r.AddRows(structRows("k.", &sampleMe{}))
		r.Snapshot(0)
	})
	mustPanic(t, "row then derived name", func() {
		r := NewRegistry()
		r.AddRows(gaugeRow("k.spawned", 0))
		r.AddRows(structRows("k.", &s))
		r.Snapshot(0)
	})
	mustPanic(t, "derived name then row", func() {
		r := NewRegistry()
		r.AddRows(structRows("k.", &s))
		r.AddRows(gaugeRow("k.level", 0))
		r.Snapshot(0)
	})
	mustPanic(t, "row then row", func() {
		r := NewRegistry()
		r.AddRows(gaugeRow("k.m1.level", 0))
		r.AddRows(gaugeRow("k.m1.level", 1))
		r.Snapshot(0)
	})
	mustPanic(t, "struct by value", func() { AppendStruct(nil, "k.", s) })
	mustPanic(t, "pointer to non-struct", func() { AppendStruct(nil, "k.", &s.Spawned) })
	mustPanic(t, "unknown tag option", func() {
		AppendStruct(nil, "k.", &struct {
			A uint64 `obs:"a,guage"`
		}{})
	})
}

// Clusters are built on several goroutines at once (cmd/experiments E4), so
// the per-type field cache is shared state: run with -race.
func sampleStructConcurrent(t *testing.T) {
	type fresh struct{ A, B uint64 } // a type the cache has not seen
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for g := range counts {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewRegistry()
			for i := 0; i < 50; i++ {
				r.AddRows(structRows(fmt.Sprintf("m%d.", i), &fresh{A: uint64(i)}))
				r.AddRows(structRows(fmt.Sprintf("s%d.", i), &sampleMe{}))
			}
			counts[g] = len(r.Snapshot(0).Metrics)
		}()
	}
	wg.Wait()
	for g, n := range counts {
		if n != 50*(2+7) {
			t.Errorf("goroutine %d: %d metrics, want %d", g, n, 50*(2+7))
		}
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"Spawned": "spawned", "MsgsIn": "msgs_in", "CPUBusy": "cpu_busy", "BytesIO": "bytes_io",
		"P99Lat": "p99_lat", "DroppedWhileCrashed": "dropped_while_crashed", "X": "x", "ID": "id",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}
