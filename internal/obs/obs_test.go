package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"sort"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// rowsFunc renders the rows a function appends.
type rowsFunc func(dst []Metric) []Metric

func (f rowsFunc) AppendMetrics(dst []Metric) []Metric { return f(dst) }

// gaugeRow is a Rows owner with the one gauge name = v.
func gaugeRow(name string, v uint64) Rows {
	return rowsFunc(func(dst []Metric) []Metric {
		return append(dst, Metric{Name: name, Kind: "gauge", Value: v})
	})
}

// structRows is a Rows owner rendering the struct ptr points to under prefix.
func structRows(prefix string, ptr any) Rows {
	return rowsFunc(func(dst []Metric) []Metric { return AppendStruct(dst, prefix, ptr) })
}

func TestRegistrySnapshotSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	var owned struct{ Counter uint64 }
	r.AddRows(structRows("z.", &owned))
	h := r.Histogram("a.hist")
	var src uint64 = 41
	r.AddRows(rowsFunc(func(dst []Metric) []Metric {
		return append(dst, Metric{Name: "m.sampled", Kind: "counter", Value: src})
	}))
	r.AddRows(gaugeRow("g.level", 7))

	owned.Counter += 3
	h.Observe(0)
	h.Observe(5)
	h.Observe(5)
	src++

	s := r.Snapshot(1234)
	if s.AtMicros != 1234 {
		t.Fatalf("AtMicros = %d", s.AtMicros)
	}
	var names []string
	for _, m := range s.Metrics {
		names = append(names, m.Name)
	}
	want := []string{"a.hist", "g.level", "m.sampled", "z.counter"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot not name-sorted: %v", names)
		}
	}
	if v := s.Value("z.counter"); v != 3 {
		t.Errorf("counter = %d, want 3", v)
	}
	if v := s.Value("m.sampled"); v != 42 {
		t.Errorf("sampled = %d, want 42 (live read)", v)
	}
	if m, _ := s.Get("g.level"); m.Kind != "gauge" || m.Value != 7 {
		t.Errorf("gauge = %+v", m)
	}
	hm, ok := s.Get("a.hist")
	if !ok || hm.Count != 3 || hm.Sum != 10 {
		t.Fatalf("hist = %+v", hm)
	}
	// Observe(0) lands in the le=0 bucket; Observe(5) twice in le=7.
	if len(hm.Buckets) != 2 || hm.Buckets[0] != (Bucket{Le: 0, N: 1}) || hm.Buckets[1] != (Bucket{Le: 7, N: 2}) {
		t.Fatalf("buckets = %+v", hm.Buckets)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) reported present")
	}
	// An owner that never observed renders its nil histogram as empty.
	var none *Histogram
	if got, want := none.Metric("h"), new(Histogram).Metric("h"); got.Kind != "histogram" || got.Count != 0 || got.Sum != 0 || got.Buckets != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("nil histogram renders %+v, an empty one %+v", got, want)
	}
}

// TestRegistryDuplicatePanics: registration claims no name, so two owners
// rendering one name register quietly, and Snapshot panics.
func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("dup")
	r.AddRows(gaugeRow("dup", 0))
	defer func() {
		if recover() == nil {
			t.Fatal("a duplicate name did not panic in Snapshot")
		}
	}()
	r.Snapshot(0)
}

func TestSnapshotWriteDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.AddRows(gaugeRow("b", 5))
		r.Histogram("a").Observe(100)
		r.AddRows(gaugeRow("c", 9))
		return r.Snapshot(77)
	}
	var t1, t2, j1, j2 bytes.Buffer
	s1, s2 := build(), build()
	if err := s1.WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatalf("text snapshots differ:\n%s\n---\n%s", t1.Bytes(), t2.Bytes())
	}
	if err := s1.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSON snapshots differ")
	}
	var dec Snapshot
	if err := json.Unmarshal(j1.Bytes(), &dec); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(dec.Metrics) != 3 {
		t.Fatalf("decoded %d metrics", len(dec.Metrics))
	}
}

func TestLedgerPointerAttribution(t *testing.T) {
	l := NewLedger()
	rec := l.At(l.Add(MigrationRecord{
		PID:  addr.ProcessID{Creator: 1, Local: 5},
		From: 1, To: 2,
		Start: 1000, End: 3500,
		MoveDataTransfers: 3, AdminMsgs: 9, OK: true,
		ProgramBytes: 256, ResidentBytes: 128, SwappableBytes: 64,
	}))
	// Post-completion residual traffic mutates through the index.
	rec.ForwardsAbsorbed = 4
	rec.ConvergenceForwards = 2

	later := l.Add(MigrationRecord{PID: addr.ProcessID{Creator: 1, Local: 6}, Start: 500, End: 900})
	_ = later

	recs := l.Records()
	if len(recs) != 2 {
		t.Fatalf("len = %d", len(recs))
	}
	if recs[0].Start != 500 || recs[1].Start != 1000 {
		t.Fatalf("not sorted by start: %+v", recs)
	}
	got := recs[1]
	if got.ForwardsAbsorbed != 4 || got.ConvergenceForwards != 2 {
		t.Fatalf("post-completion mutation lost: %+v", got)
	}
	if got.FreezeMicros() != 2500 || got.BytesMoved() != 448 {
		t.Fatalf("derived fields: freeze=%d bytes=%d", got.FreezeMicros(), got.BytesMoved())
	}

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("ledger JSON invalid")
	}
}

// TestLedgerStoresInPlace: records added past several chunks stay where the
// indices Add returned name them, From lists one machine's records in the order it
// added them, and a merged view never writes into the ledgers it views.
func TestLedgerStoresInPlace(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	var ptrs []*MigrationRecord
	for i := 0; i < 3*ledgerChunk+5; i++ {
		from := addr.MachineID(1 + i%2)
		ptrs = append(ptrs, a.At(a.Add(MigrationRecord{PID: addr.ProcessID{Creator: from, Local: addr.LocalUID(i)}, From: from, Start: sim.Time(1000 - i)})))
	}
	b.Add(MigrationRecord{From: 3, Start: 5})
	for i, p := range ptrs {
		p.ForwardsAbsorbed = uint64(i)
	}
	from2 := a.From(2)
	if len(from2) != len(ptrs)/2 {
		t.Fatalf("From(2) has %d records, want %d", len(from2), len(ptrs)/2)
	}
	for j, r := range from2 {
		if i := 2*j + 1; r.PID.Local != addr.LocalUID(i) || r.ForwardsAbsorbed != uint64(i) {
			t.Fatalf("From(2)[%d] = %+v, want record %d with its attribution", j, r, i)
		}
	}
	merged := MergeLedgers(a, nil, b)
	recs := merged.Records()
	if len(recs) != len(ptrs)+1 || recs[0].Start != 5 || recs[len(recs)-1].Start != 1000 {
		t.Fatalf("merged view: %d records, first start %d, last %d", len(recs), recs[0].Start, recs[len(recs)-1].Start)
	}
	merged.Add(MigrationRecord{From: 9})
	a.Add(MigrationRecord{From: 1})
	if len(merged.From(9)) != 1 || len(a.From(9)) != 0 {
		t.Fatal("the merged view and a ledger it views share the slot after their last records")
	}
}

func TestTimelineExport(t *testing.T) {
	l := NewLedger()
	l.Add(MigrationRecord{PID: addr.ProcessID{Creator: 1, Local: 2}, From: 1, To: 3, Start: 100, End: 400, AdminMsgs: 9})
	var now sim.Time
	tr := trace.New(func() sim.Time { return now }, 0)
	now = 50
	tr.Emit(1, trace.CatMigrate, "step1-remove-from-execution", "pid")
	now = 60
	tr.Emit(2, trace.CatForward, "forwarded", "")
	recs := tr.Records()
	samples := []CounterSample{{At: 1000, Pending: 3, Fired: 10}, {At: 2000, Pending: 1, Fired: 25}}

	build := func() []byte {
		tl := BuildTimeline(recs, l, samples)
		var buf bytes.Buffer
		if err := tl.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	b1, b2 := build(), build()
	if !bytes.Equal(b1, b2) {
		t.Fatal("timeline JSON differs between identical builds")
	}
	want, err := os.ReadFile("testdata/timeline_export.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, want) {
		t.Fatalf("timeline JSON:\n%s\nwant testdata/timeline_export.json:\n%s", b1, want)
	}
	var doc struct {
		TraceEvents []TimelineEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("timeline JSON invalid: %v", err)
	}
	// 2 instants + 1 migration span + 2 samples × 2 series.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	var phases = map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
	}
	if phases["i"] != 2 || phases["X"] != 1 || phases["C"] != 4 {
		t.Fatalf("phase mix: %v", phases)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && (ev.TS != 100 || ev.Dur != 300 || ev.PID != 1) {
			t.Fatalf("migration span wrong: %+v", ev)
		}
	}
}

func TestEngineSampler(t *testing.T) {
	eng := sim.NewEngine(1)
	s := SampleEngine(eng, 2_000)
	for i := 1; i <= 10; i++ {
		at := sim.Time(i * 1_000)
		eng.At(at, "tick", func() {})
	}
	eng.Run()
	samples := s.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	var last sim.Time
	for _, cs := range samples {
		if cs.At < last {
			t.Fatalf("samples out of order: %+v", samples)
		}
		last = cs.At
	}
	// Boundary crossing at 2k, 4k, 6k, 8k, 10k.
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5: %+v", len(samples), samples)
	}
	if samples[4].Fired != 9 { // the 10th event hasn't fired when the hook runs
		t.Fatalf("last sample fired=%d", samples[4].Fired)
	}
}

// TestMergeSingleSnapshotFastPath: a snapshot merged alone, or with an
// empty one, is the snapshot stamped at the merge time, on counters, gauges
// and a histogram; and its buckets do not alias the registry's histogram:
// a later observation leaves an earlier merged snapshot as it was.
func TestMergeSingleSnapshotFastPath(t *testing.T) {
	r := NewRegistry()
	var owned struct{ Counter, Other uint64 }
	r.AddRows(structRows("z.", &owned))
	h := r.Histogram("a.hist")
	r.AddRows(gaugeRow("g.level", 7))
	owned.Counter, owned.Other = 3, 9
	for _, v := range []uint64{0, 5, 5, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot(10)
	merged := []Snapshot{MergeSnapshots(99, s), MergeSnapshots(99, s, Snapshot{})}
	var before []string
	for _, m := range merged {
		if m.AtMicros != 99 {
			t.Fatalf("AtMicros = %d, want 99", m.AtMicros)
		}
		if got, want := fmt.Sprintf("%+v", m.Metrics), fmt.Sprintf("%+v", s.Metrics); got != want {
			t.Fatalf("merged snapshot differs from its input:\n%s\n%s", got, want)
		}
		before = append(before, fmt.Sprintf("%+v", m))
	}
	h.Observe(5)
	owned.Counter++
	for i, m := range merged {
		if after := fmt.Sprintf("%+v", m); after != before[i] {
			t.Fatalf("a merged snapshot of %d inputs moved with the registry:\n%s\n%s", i+1, before[i], after)
		}
	}
}

// TestMergeMatchesReference: the walk over name-sorted snapshots gives what
// a merge through a name map and a sort gives (refMerge), on seeded random
// shard snapshots: 1–4 of them, overlapping and disjoint names, counters,
// gauges, and histograms grown to different depths.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 1))
	for trial := 0; trial < 500; trial++ {
		snaps := make([]Snapshot, 1+rng.IntN(4))
		for i := range snaps {
			r := NewRegistry()
			for n := 0; n < 12; n++ {
				if rng.IntN(2) == 0 {
					continue // this shard has no metric n
				}
				switch name := fmt.Sprintf("m%02d", n); n % 3 {
				case 0:
					r.AddRows(gaugeRow(name, rng.Uint64N(100)))
				case 1:
					v := rng.Uint64N(100)
					r.AddRows(rowsFunc(func(dst []Metric) []Metric {
						return append(dst, Metric{Name: name, Kind: "counter", Value: v})
					}))
				default:
					h := r.Histogram(name)
					for k := rng.IntN(6); k > 0; k-- {
						h.Observe(rng.Uint64N(1 << rng.IntN(20)))
					}
				}
			}
			snaps[i] = r.Snapshot(sim.Time(i))
		}
		got, want := MergeSnapshots(7, snaps...), refMerge(7, snaps...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merge of %d snapshots\n got %+v\nwant %+v", trial, len(snaps), got, want)
		}
	}
}

// refMerge is MergeSnapshots as a name map and a sort: every metric is
// copied into the map on first sight, later ones with its name add into it,
// and the names are sorted at the end.
func refMerge(at uint64, snaps ...Snapshot) Snapshot {
	if len(snaps) == 1 {
		s := snaps[0]
		s.AtMicros = at
		return s
	}
	byName := make(map[string]*Metric)
	var order []string
	for _, s := range snaps {
		for i := range s.Metrics {
			m := &s.Metrics[i]
			acc, ok := byName[m.Name]
			if !ok {
				cp := *m
				cp.Buckets = append([]Bucket(nil), m.Buckets...)
				byName[m.Name] = &cp
				order = append(order, m.Name)
				continue
			}
			acc.Value += m.Value
			acc.Count += m.Count
			acc.Sum += m.Sum
			acc.Buckets = refMergeBuckets(acc.Buckets, m.Buckets)
		}
	}
	sort.Strings(order)
	out := Snapshot{AtMicros: at, Metrics: make([]Metric, 0, len(order))}
	for _, name := range order {
		out.Metrics = append(out.Metrics, *byName[name])
	}
	return out
}

func refMergeBuckets(a, b []Bucket) []Bucket {
	if len(b) == 0 {
		return a
	}
	merged := append([]Bucket(nil), a...)
	for _, bb := range b {
		found := false
		for i := range merged {
			if merged[i].Le == bb.Le {
				merged[i].N += bb.N
				found = true
				break
			}
		}
		if !found {
			merged = append(merged, bb)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Le < merged[j].Le })
	return merged
}
