package workload_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"demosmp/internal/proc"
	"demosmp/internal/proctest"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// gobStates lists, per registered kind, the body states the codec tests
// drive: the zero state, negative and extreme scalars, nil and non-nil maps
// and slices.
var gobStates = map[string][]proc.Body{
	workload.SinkKind: {
		&workload.Sink{}, &workload.Sink{Got: []string{}}, &workload.Sink{Got: []string{""}},
		&workload.Sink{Got: []string{"chat-0", "", "a much longer body \x00\xff"}},
	},
	workload.ChatterKind: {
		&workload.Chatter{}, &workload.Chatter{N: 20, Interval: 1500, Sent: 7},
		&workload.Chatter{N: -1, Interval: math.MaxUint32, Sent: math.MinInt64},
	},
	workload.StageKind:      {&workload.Stage{}, &workload.Stage{Forwarded: 1}, &workload.Stage{Forwarded: math.MaxInt64}},
	workload.LinkHolderKind: {&workload.LinkHolder{}, &workload.LinkHolder{Poked: -5}, &workload.LinkHolder{Poked: 1 << 40}},
	workload.EchoKind:       {&workload.Echo{}, &workload.Echo{Rounds: 1900000}, &workload.Echo{Rounds: -1}},
	workload.CounterKind: {
		&workload.Counter{}, &workload.Counter{Seen: 12345}, &workload.Counter{Seen: -12345},
		&workload.Counter{Seen: math.MaxInt64}, &workload.Counter{Seen: math.MinInt64},
	},
	workload.RecorderKind: {
		&workload.Recorder{}, &workload.Recorder{Seen: map[uint32]uint32{}, Junk: 3},
		&workload.Recorder{Seen: map[uint32]uint32{7: 1}}, &workload.Recorder{Seen: map[uint32]uint32{math.MaxUint32: math.MaxUint32}, Junk: -1},
		&workload.Recorder{Seen: map[uint32]uint32{0: 1, 1: 2, 2: 1, 1000: 3, 70000: 1}},
	},
	workload.JobKind:     {&workload.Job{}, &workload.Job{Service: 1}, &workload.Job{Service: math.MaxUint64}},
	workload.SpinnerKind: {&workload.Spinner{}, &workload.Spinner{Work: 250000}, &workload.Spinner{Work: -1}},
}

// notGob are the registered kinds whose Snapshot is not proc.Snapshot.
var notGob = map[string]string{
	proc.VMKind:       "the CPU registers, hand-encoded",
	workload.NullKind: "stateless: the empty snapshot",
}

// gobCopy copies src into dst through a fresh gob encoder and decoder: the
// reference for what Restore leaves in a new body.
func gobCopy(dst, src proc.Body) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(src); err != nil {
		return err
	}
	return gob.NewDecoder(&buf).Decode(dst)
}

// checkedKinds returns the registered kinds whose codec is proc's, failing
// on one with no states in gobStates and no reason in notGob.
func checkedKinds(t *testing.T, reg *proc.Registry) []string {
	t.Helper()
	var kinds []string
	for _, kind := range reg.Kinds() {
		if _, skip := notGob[kind]; skip {
			continue
		}
		if len(gobStates[kind]) == 0 {
			t.Fatalf("kind %q is registered but has no states in gobStates (or a reason in notGob)", kind)
		}
		for _, s := range gobStates[kind] {
			if s.Kind() != kind {
				t.Fatalf("gobStates[%q] holds a %q", kind, s.Kind())
			}
		}
		kinds = append(kinds, kind)
	}
	return kinds
}

// TestGobStateMatchesFreshGob holds every registered kind's codec to
// proctest.CheckStateCodec, with gob as the reference for restored values:
// Restore of a snapshot leaves what a fresh gob round trip leaves.
func TestGobStateMatchesFreshGob(t *testing.T) {
	reg := workload.Registry()
	for _, kind := range checkedKinds(t, reg) {
		newBody := func() proc.Body {
			b, err := reg.New(kind)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		t.Run(kind, func(t *testing.T) { proctest.CheckStateCodec(t, newBody, gobCopy, gobStates[kind]...) })
	}
}

// TestSnapshotIsAFunctionOfState: a body's snapshot depends on its state
// alone — not on the order Go walks a map in, and not on what else the
// process encoded before. The kernel's half, freeze, is pinned by the test
// of the same name in internal/kernel.
func TestSnapshotIsAFunctionOfState(t *testing.T) {
	r := &workload.Recorder{Seen: map[uint32]uint32{}, Junk: 2}
	for i := uint32(0); i < 8; i++ {
		r.Seen[i*i*1000] = i + 1
	}
	first, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if again, _ := r.Snapshot(); !bytes.Equal(again, first) {
			t.Fatalf("snapshot %d of one Recorder:\n %x\nfirst\n %x", i, again, first)
		}
	}

	snapAll := func(kind string) [][]byte {
		var out [][]byte
		for _, s := range gobStates[kind] {
			b, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	kinds := checkedKinds(t, workload.Registry())
	for _, kind := range kinds {
		before := snapAll(kind)
		for _, other := range kinds {
			if other != kind {
				snapAll(other)
			}
		}
		if after := snapAll(kind); !reflect.DeepEqual(after, before) {
			t.Errorf("kind %q: snapshots after every other kind was encoded\n %x\nbefore\n %x", kind, after, before)
		}
	}
}

// TestStateCodecConcurrent drives the codec from two goroutines, as two
// parallel shards migrating bodies of one kind do. Run under -race (the
// tier-1 gate does): the per-type codec cache is shared state.
func TestStateCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c := &workload.Counter{Seen: g*1_000_000 + i}
				snap, err := c.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				if i%100 == 0 { // a bad blob in between must not poison the other goroutine
					_ = (&workload.Counter{}).Restore(snap[:len(snap)-1])
				}
				var back workload.Counter
				if err := back.Restore(snap); err != nil || back != *c {
					t.Errorf("goroutine %d round %d: got %+v, %v", g, i, back, err)
					return
				}
				r := &workload.Recorder{Seen: map[uint32]uint32{uint32(g): uint32(i + 1)}}
				snap, err = r.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				var rback workload.Recorder
				if err := rback.Restore(snap); err != nil || !reflect.DeepEqual(&rback, r) {
					t.Errorf("goroutine %d round %d: got %+v, %v", g, i, rback, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGobStateAllocs: a Counter round trip allocates the snapshot's bytes
// and nothing else. It allocated 168 times with a gob.Encoder and
// gob.Decoder per call.
func TestGobStateAllocs(t *testing.T) {
	c := &workload.Counter{Seen: 12345}
	var back workload.Counter
	roundTrip := func() {
		snap, err := c.Snapshot()
		if err == nil {
			err = back.Restore(snap)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if a := testing.AllocsPerRun(200, roundTrip); a > 1 {
		t.Fatalf("Counter Snapshot+Restore allocates %v times, want 1 (the snapshot)", a)
	}
	if back != *c {
		t.Fatalf("round trip gave %+v", back)
	}
}

// FuzzStateCodec holds five kinds' codecs to the format's two promises on
// arbitrary input: Restore accepts only what Snapshot writes (a restore
// that succeeds snapshots back to exactly its input), and Snapshot then
// Restore of any state built from the fuzz values gives the state back.
// The seeds are gobStates' snapshots.
func FuzzStateCodec(f *testing.F) {
	kinds := []string{workload.CounterKind, workload.ChatterKind, workload.JobKind, workload.SinkKind, workload.RecorderKind}
	reg := workload.Registry()
	for k, kind := range kinds {
		for _, s := range gobStates[kind] {
			snap, err := s.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(k), snap, int64(-1), int64(1<<40), uint64(math.MaxUint32), true, "a,b")
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, data []byte, a, b int64, c uint64, on bool, s string) {
		kind := kinds[int(k)%len(kinds)]
		y, _ := reg.New(kind)
		if y.Restore(data) == nil {
			if again, err := y.Snapshot(); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("Restore(%x) into a %s gave %+v, which snapshots to %x, %v", data, kind, y, again, err)
			}
		}

		var x proc.Body
		switch kind {
		case workload.CounterKind:
			x = &workload.Counter{Seen: int(a)}
		case workload.ChatterKind:
			x = &workload.Chatter{N: int(a), Interval: uint32(c), Sent: int(b)}
		case workload.JobKind:
			x = &workload.Job{Service: sim.Time(c)}
		case workload.SinkKind:
			sink := &workload.Sink{}
			if s != "" {
				sink.Got = strings.Split(s, ",")
			}
			x = sink
		default:
			rec := &workload.Recorder{Junk: int(b)}
			if on {
				rec.Seen = map[uint32]uint32{}
				for i := 0; i+1 < len(data); i += 2 {
					rec.Seen[uint32(data[i])*uint32(c|1)] = uint32(data[i+1])
				}
			}
			x = rec
		}
		snap, err := x.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		back, _ := reg.New(kind)
		if err := back.Restore(snap); err != nil || !reflect.DeepEqual(back, x) {
			t.Fatalf("Snapshot then Restore of %+v: %+v, %v", x, back, err)
		}
	})
}
