package proc_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"demosmp/internal/proc"
	"demosmp/internal/proctest"
)

type level int16

type inner struct {
	A uint8
	S []string
}

type key struct {
	A uint16
	B string
}

// wide is a state with a field of every kind the format carries, a named
// integer and an unexported field that stays behind.
type wide struct {
	I8     int8
	I16    int16
	I32    int32
	I      int
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	P      uintptr
	B      bool
	S      string
	L      level
	Raw    []byte
	Ints   []int32
	Nest   [][]uint16
	Ptr    *inner
	N      inner
	M      map[string]*inner
	Keys   map[key]bool
	hidden int
}

func (w *wide) Kind() string                              { return "wide" }
func (w *wide) Step(proc.Context, int) (int, proc.Status) { return 0, proc.Status{} }
func (w *wide) Snapshot() ([]byte, error)                 { return proc.Snapshot(w) }
func (w *wide) Restore(data []byte) error                 { return proc.Restore(w, data) }

// gobCopy copies src into dst through a fresh gob encoder and decoder: the
// reference for what Restore leaves in a new body.
func gobCopy(dst, src proc.Body) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(src); err != nil {
		return err
	}
	return gob.NewDecoder(&buf).Decode(dst)
}

// TestStateCodec: every kind at its extremes, empty and nil slices and
// maps, and strings long enough for a multi-byte length round-trip to
// what gob restores, with stable bytes and failing truncations.
func TestStateCodec(t *testing.T) {
	proctest.CheckStateCodec(t, func() proc.Body { return &wide{} }, gobCopy,
		&wide{},
		&wide{I8: -1, U8: 1, B: true, S: "x", hidden: 3},
		&wide{I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32, I: math.MinInt64,
			U8: math.MaxUint8, U16: math.MaxUint16, U32: math.MaxUint32, U64: math.MaxUint64,
			P: 1 << 40, L: -300},
		&wide{I: 63, U64: 127, S: strings.Repeat("\x00\xff", 200), Raw: []byte{0, 0x80, 0xff}},
		&wide{I: 64, U64: 128, L: level(math.MaxInt16), Raw: []byte{}, Ints: []int32{}, Nest: [][]uint16{}},
		&wide{Ints: []int32{-1, 0, math.MaxInt32}, Nest: [][]uint16{nil, {}, {1, math.MaxUint16}},
			Ptr: &inner{}, N: inner{A: 2, S: []string{"", "b"}}},
		&wide{M: map[string]*inner{"": {}, "a": {A: 1}, "b\x00": {S: []string{"z"}}},
			Keys: map[key]bool{{}: false, {A: 1}: true, {B: "k"}: true, {A: 1, B: "k"}: false}},
		&wide{M: map[string]*inner{}, Keys: map[key]bool{}},
	)
}

// small is the state the format and rejection tests spell out by hand.
type small struct {
	I8 int8
	B  bool
	S  string
	P  *uint16
	M  map[uint8]uint8
}

// TestSnapshotBytes pins the format on one value: a zig-zag varint, a bool
// byte, a length and its bytes, a presence byte and its target, and a map's
// presence byte, length and entries in key order.
func TestSnapshotBytes(t *testing.T) {
	seven := uint16(7)
	got, err := proc.Snapshot(&small{I8: -1, B: true, S: "ab", P: &seven, M: map[uint8]uint8{3: 4, 1: 2, 200: 0}})
	want := []byte{0x01, 0x01, 0x02, 'a', 'b', 0x01, 0x07, 0x01, 0x03, 0x01, 0x02, 0x03, 0x04, 0xc8, 0x01, 0x00}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Snapshot = %x, %v; want %x", got, err, want)
	}
	if got, err := proc.Snapshot(&small{}); err != nil || !bytes.Equal(got, []byte{0, 0, 0, 0, 0}) {
		t.Fatalf("Snapshot of the zero state = %x, %v", got, err)
	}
	type tree struct{ Kids []tree } // a recursive type
	x := tree{Kids: []tree{{}, {Kids: []tree{{}}}}}
	got, err = proc.Snapshot(&x)
	var back tree
	if err != nil || !bytes.Equal(got, []byte{2, 0, 1, 0}) || proc.Restore(&back, got) != nil || !reflect.DeepEqual(back, x) {
		t.Fatalf("a tree: Snapshot = %x, %v; restored %+v", got, err, back)
	}
}

// TestRestoreRejectsNonCanonical: every input Snapshot cannot produce is an
// error, and a rejected Restore leaves the state as it was.
func TestRestoreRejectsNonCanonical(t *testing.T) {
	over := bytes.Repeat([]byte{0xff}, 9)
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "ends inside"},
		{"cut in a map", []byte{0, 0, 0, 0, 1, 2, 1, 2, 3}, "ends inside"},
		{"trailing byte", []byte{0, 0, 0, 0, 0, 0}, "after the last field"},
		{"over-long varint", []byte{0x82, 0x00, 0, 0, 0, 0}, "over-long"},
		{"varint past 64 bits", append(append([]byte(nil), over...), 0x02, 0, 0, 0, 0), "over-long"},
		{"int8 overflow", []byte{0x80, 0x02, 0, 0, 0, 0}, "overflows"},
		{"uint16 overflow behind a pointer", []byte{0, 0, 0, 1, 0x80, 0x80, 0x04, 0}, "overflows"},
		{"bool 2", []byte{0, 2, 0, 0, 0}, "neither 0 nor 1"},
		{"pointer presence 2", []byte{0, 0, 0, 2, 0}, "neither 0 nor 1"},
		{"map presence 2", []byte{0, 0, 0, 0, 2}, "neither 0 nor 1"},
		{"string past the end", []byte{0, 0, 9, 'a', 0, 0}, "past the end"},
		{"map length past the end", []byte{0, 0, 0, 0, 1, 5, 1, 1}, "past the end"},
		{"map keys unsorted", []byte{0, 0, 0, 0, 1, 2, 3, 4, 1, 2}, "unsorted or repeated"},
		{"map key repeated", []byte{0, 0, 0, 0, 1, 2, 1, 2, 1, 3}, "unsorted or repeated"},
	} {
		seven := uint16(7)
		start := small{I8: 5, B: true, S: "kept", P: &seven, M: map[uint8]uint8{9: 9}}
		got := start
		err := proc.Restore(&got, c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore(%x) = %v, want an error saying %q", c.name, c.data, err, c.want)
		}
		if !reflect.DeepEqual(got, start) {
			t.Errorf("%s: a rejected Restore changed the state to %+v", c.name, got)
		}
	}
}

// TestStateCodecKinds: the kinds outside the format, a struct with nothing
// to send and a map key that does not encode one to one are errors on both
// sides, not silent losses.
func TestStateCodecKinds(t *testing.T) {
	type hidden struct{ x int }
	type partKey struct{ A, b int }
	refuses[struct{ F float64 }](t, "a float")
	refuses[struct{ A any }](t, "an interface")
	refuses[struct{ A [2]int }](t, "an array")
	refuses[hidden](t, "no exported field")
	refuses[struct{ M map[*int]int }](t, "a pointer key")
	refuses[struct{ M map[partKey]int }](t, "a key with an unexported field")
}

func refuses[T any](t *testing.T, what string) {
	t.Helper()
	if _, err := proc.Snapshot(new(T)); err == nil {
		t.Errorf("Snapshot of %s: no error", what)
	}
	if err := proc.Restore(new(T), []byte{0, 0}); err == nil {
		t.Errorf("Restore of %s: no error", what)
	}
}
