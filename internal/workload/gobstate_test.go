package workload_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/bits"
	"reflect"
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

// TestGobStateAllocs pins what the flat path buys: a Counter round trip
// allocates the snapshot's bytes and nothing else. It allocated 168 times
// with a gob.Encoder and gob.Decoder per call, and 4 through the long-lived
// ones.
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

// flatKinds are the registered kinds whose codec takes proc.GobState's flat
// path; every other gob kind goes through gob's engines. A field that is
// not an integer, a bool or a string — a map added to Counter, say — moves
// a kind from one list to the other and fails here.
var flatKinds = map[string]bool{
	workload.CounterKind: true, workload.EchoKind: true, workload.StageKind: true,
	workload.LinkHolderKind: true, workload.ChatterKind: true, workload.JobKind: true,
	workload.SpinnerKind: true,
	workload.SinkKind:    false, workload.RecorderKind: false,
}

// TestGobStateFlatKinds: the seven flat kinds take the flat path, Sink and
// Recorder do not, and every registered gob kind is in one list.
func TestGobStateFlatKinds(t *testing.T) {
	reg := workload.Registry()
	for _, kind := range reg.Kinds() {
		if _, skip := notGob[kind]; skip {
			continue
		}
		want, ok := flatKinds[kind]
		if !ok {
			t.Fatalf("kind %q is registered but not listed in flatKinds", kind)
		}
		b, err := reg.New(kind)
		if err != nil {
			t.Fatal(err)
		}
		if got := proc.GobFlat(reflect.TypeOf(b).Elem()); got != want {
			t.Errorf("kind %q: flat path %v, want %v", kind, got, want)
		}
	}
}

// FuzzGobStateFlat holds the flat path of three flat kinds to fresh gob on
// arbitrary input: Restore of any bytes, and of a well-framed message
// carrying any wire values in every field (past a field's width included),
// leaves the same value and the same error text as a fresh gob.Decoder, and
// Snapshot of any field values writes the bytes a fresh gob.Encoder writes.
// The seeds are gobStates' snapshots and their field values.
func FuzzGobStateFlat(f *testing.F) {
	kinds := []string{workload.CounterKind, workload.ChatterKind, workload.JobKind}
	reg := workload.Registry()
	frames := make(map[string]func(vals ...uint64) []byte)
	for k, kind := range kinds {
		for _, s := range gobStates[kind] {
			a, b, c, on := flatFuzzFields(s)
			f.Add(uint8(k), proctest.FreshGob(f, s), a, b, c, on)
		}
		zero, _ := reg.New(kind)
		frames[kind] = valueFrame(f, zero)
	}
	f.Fuzz(func(t *testing.T, k uint8, data []byte, a, b int64, c uint64, on bool) {
		kind := kinds[int(k)%len(kinds)]
		restoreLikeGob(t, reg, kind, data)

		var x proc.Body
		var wire []uint64 // one raw value per field, in field order
		switch kind {
		case workload.CounterKind:
			x, wire = &workload.Counter{Seen: int(a)}, []uint64{uint64(a)}
		case workload.ChatterKind:
			x = &workload.Chatter{N: int(a), Interval: uint32(c), Sent: int(b)}
			wire = []uint64{uint64(a), c, uint64(b)}
		default:
			x, wire = &workload.Job{Service: sim.Time(c), Armed: on}, []uint64{c, uint64(a)}
		}
		restoreLikeGob(t, reg, kind, frames[kind](wire...))

		snap, err := x.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if fresh := proctest.FreshGob(t, x); !bytes.Equal(snap, fresh) {
			t.Fatalf("Snapshot of %+v:\n got %x\nwant %x", x, snap, fresh)
		}
	})
}

// restoreLikeGob restores data into a new body of kind and into another
// through a fresh gob.Decoder, and fails unless both end with the same
// value and the same error.
func restoreLikeGob(t *testing.T, reg *proc.Registry, kind string, data []byte) {
	t.Helper()
	got, _ := reg.New(kind)
	want, _ := reg.New(kind)
	err := got.Restore(data)
	wantErr := gob.NewDecoder(bytes.NewReader(data)).Decode(want)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Restore(%x) into a %s: %+v, %v; a fresh decoder gives %+v, %v", data, kind, got, err, want, wantErr)
	}
}

// valueFrame returns a builder of streams in zero's type: its descriptors,
// then one value message that sends every field in order (delta 1 each)
// with the given wire values, whatever the field's width. The descriptors
// and the type id are read off one encoder's two streams of the zero value
// (descriptors then value, then the value alone: count, type id, 0).
func valueFrame(tb testing.TB, zero proc.Body) func(vals ...uint64) []byte {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(zero); err != nil {
		tb.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(zero); err != nil {
		tb.Fatal(err)
	}
	all := buf.Bytes()
	second := all[first:]
	prefix, typeID := all[:first-len(second)], second[1:len(second)-1]
	return func(vals ...uint64) []byte {
		body := append([]byte(nil), typeID...)
		for _, v := range vals {
			body = appendGobUint(append(body, 1), v)
		}
		body = append(body, 0)
		out := appendGobUint(append([]byte(nil), prefix...), uint64(len(body)))
		return append(out, body...)
	}
}

// appendGobUint appends x in gob's unsigned form: one byte below 0x80, else
// the negated byte count and the big-endian bytes.
func appendGobUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], x)
	n := 8 - bits.LeadingZeros64(x)/8
	return append(append(b, byte(-n)), be[8-n:]...)
}

// flatFuzzFields spreads a flat state's fields over FuzzGobStateFlat's
// arguments, the way the fuzz function reads them back.
func flatFuzzFields(s proc.Body) (a, b int64, c uint64, on bool) {
	switch s := s.(type) {
	case *workload.Counter:
		a = int64(s.Seen)
	case *workload.Chatter:
		a, b, c = int64(s.N), int64(s.Sent), uint64(s.Interval)
	case *workload.Job:
		c, on = uint64(s.Service), s.Armed
	}
	return a, b, c, on
}
