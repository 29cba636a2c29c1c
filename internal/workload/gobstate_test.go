package workload_test

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"demosmp/internal/proc"
	"demosmp/internal/proctest"
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
	workload.JobKind:     {&workload.Job{}, &workload.Job{Service: 1, Armed: true}, &workload.Job{Service: math.MaxUint64}},
	workload.SpinnerKind: {&workload.Spinner{}, &workload.Spinner{Work: 250000}, &workload.Spinner{Work: -1}},
}

// notGob are the registered kinds whose Snapshot is not gob at all.
var notGob = map[string]string{
	proc.VMKind:       "the CPU registers, hand-encoded",
	workload.NullKind: "stateless: the empty snapshot",
}

// TestGobStateMatchesFreshGob is the contract that lets proc.GobState stand
// in for a gob.Encoder and gob.Decoder per call: over every registered
// kind, the bytes, the restored values and the errors are fresh gob's,
// whatever ran before — each kind on its own, then all kinds interleaved.
func TestGobStateMatchesFreshGob(t *testing.T) {
	reg := workload.Registry()
	for _, kind := range reg.Kinds() {
		states, ok := gobStates[kind]
		if _, skip := notGob[kind]; skip {
			continue
		}
		if !ok {
			t.Fatalf("kind %q is registered but has no states in gobStates (or a reason in notGob)", kind)
		}
		newBody := func() proc.Body {
			b, err := reg.New(kind)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		for _, s := range states {
			if s.Kind() != kind {
				t.Fatalf("gobStates[%q] holds a %q", kind, s.Kind())
			}
		}
		t.Run(kind, func(t *testing.T) { proctest.CheckGobCodec(t, newBody, states...) })
	}

	// Interleaved: round r visits state r of every kind, kinds in
	// alternating order, so each codec runs between uses of all the others.
	kinds := reg.Kinds()
	for r := 0; r < 5; r++ {
		for i := range kinds {
			kind := kinds[i]
			if r%2 == 1 {
				kind = kinds[len(kinds)-1-i]
			}
			states := gobStates[kind]
			if len(states) == 0 {
				continue
			}
			x := states[r%len(states)]
			snap, err := x.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if want := proctest.FreshGob(t, x); proctest.GobIsOrdered(x) && !bytes.Equal(snap, want) {
				t.Fatalf("interleaved Snapshot of %+v:\n got %x\nwant %x", x, snap, want)
			}
			y, _ := reg.New(kind)
			if err := y.Restore(snap); err != nil {
				t.Fatalf("interleaved Restore of %+v: %v", x, err)
			}
			if again := proctest.FreshGob(t, y); len(again) != len(snap) {
				t.Fatalf("interleaved round trip of %+v changed it to %+v", x, y)
			}
		}
	}
}

// TestGobStateConcurrent drives one kind's codec from two goroutines, as two
// parallel shards migrating bodies of that kind do. Run under -race (the
// tier-1 gate does): the codec's buffers and its long-lived encoder and
// decoder are shared state.
func TestGobStateConcurrent(t *testing.T) {
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

// TestGobStateAllocs pins what the long-lived codec buys: a Counter round
// trip allocated 168 times with a gob.Encoder and gob.Decoder per call.
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
	if a := testing.AllocsPerRun(200, roundTrip); a > 4 {
		t.Fatalf("Counter Snapshot+Restore allocates %v times, want <= 4", a)
	}
	if back != *c {
		t.Fatalf("round trip gave %+v", back)
	}
}
