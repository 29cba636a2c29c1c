package proc_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"demosmp/internal/proc"
	"demosmp/internal/proctest"
)

type level int16

// wide is a flat state with a field of every flat kind, a named integer and
// an unexported field gob neither sends nor sets.
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
	hidden int
}

func (w *wide) Kind() string                              { return "wide" }
func (w *wide) Step(proc.Context, int) (int, proc.Status) { return 0, proc.Status{} }
func (w *wide) Snapshot() ([]byte, error)                 { return wideState.Snapshot(w) }
func (w *wide) Restore(data []byte) error                 { return wideState.Restore(w, data) }

var wideState proc.GobState[wide]

// TestGobFlat: which structs the flat path takes.
func TestGobFlat(t *testing.T) {
	type marshals struct{ D time.Duration } // flat: Duration is an int64 with no codec methods
	type textField struct{ T time.Time }    // time.Time encodes itself
	for _, c := range []struct {
		v    any
		flat bool
	}{
		{wide{}, true},
		{struct{}{}, true},
		{marshals{}, true},
		{struct{ x []int }{}, true}, // unexported: not sent
		{struct{ M map[int]int }{}, false},
		{struct{ S []byte }{}, false},
		{struct{ P *int }{}, false},
		{struct{ F float64 }{}, false},
		{struct{ A any }{}, false},
		{struct{ N struct{ X int } }{}, false},
		{textField{}, false},
		{time.Time{}, false},
		{0, false},
	} {
		if got := proc.GobFlat(reflect.TypeOf(c.v)); got != c.flat {
			t.Errorf("GobFlat(%T) = %v, want %v", c.v, got, c.flat)
		}
	}
}

// TestGobStateFlatMatchesFreshGob: the flat path's bytes, values and errors
// are fresh gob's for every flat kind, at the extremes of each, with
// strings long enough for a multi-byte length.
func TestGobStateFlatMatchesFreshGob(t *testing.T) {
	proctest.CheckGobCodec(t, func() proc.Body { return &wide{} },
		&wide{},
		&wide{I8: -1, U8: 1, B: true, S: "x"},
		&wide{I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32, I: math.MinInt64,
			U8: math.MaxUint8, U16: math.MaxUint16, U32: math.MaxUint32, U64: math.MaxUint64,
			P: 1 << 40, L: -300},
		&wide{I: 63, U64: 127, S: strings.Repeat("\x00\xff", 200)},
		&wide{I: 64, U64: 128, L: level(math.MaxInt16)},
	)
}

// TestGobStateFlatHandsBack: messages gob takes or rejects in ways the flat
// path does not accept go to gob, which decides the value and the error;
// the flat path writes nothing first. Each case decodes into a state that
// already holds values, since gob leaves a field no message names alone.
func TestGobStateFlatHandsBack(t *testing.T) {
	prefix, typeID := wireOf(t)
	msg := func(fields ...byte) []byte {
		body := append(append([]byte(nil), typeID...), fields...)
		return append(append(append([]byte(nil), prefix...), byte(len(body))), body...)
	}
	good := msg(1, 2, 0) // I8 = 1
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"well formed", good},
		{"no terminator", msg(1, 2)},
		{"second field cut", msg(1, 2, 3, 0xfe, 0x01)},
		{"bool sent as 2", msg(10, 2, 0)},
		{"bool sent as 0", msg(10, 0, 0)},
		{"zero int sent", msg(4, 0, 0)},
		{"non-minimal integer", msg(4, 0xfe, 0x00, 0x02, 0)},
		{"int8 overflow", msg(1, 0xfe, 0x01, 0x90, 0)},
		{"uint8 overflow", msg(5, 0xfe, 0x01, 0x00, 0)},
		{"int16 overflow", msg(12, 0xfd, 0x02, 0x00, 0x00, 0)},
		{"field out of range", msg(13, 1, 0)},
		{"delta overflows", msg(1, 2, 0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0)},
		{"string past the end", msg(11, 50, 'a', 'b', 0)},
		{"bytes after the terminator", msg(1, 2, 0, 7)},
		{"uint past the end", msg(8, 0xfc, 1)},
		{"bad uint length byte", msg(8, 0x80, 1, 0)},
		{"another type id", append(append([]byte(nil), prefix...), 3, 0xff, 0x02, 0)},
		{"count too long", append(append([]byte(nil), prefix...), append([]byte{byte(len(good) - len(prefix))}, good[len(prefix)+1:]...)...)},
		{"count short", append(append([]byte(nil), prefix...), append([]byte{byte(len(good) - len(prefix) - 2)}, good[len(prefix)+1:]...)...)},
		{"a second message after", append(append([]byte(nil), good...), good[len(prefix):]...)},
		{"prefix only", prefix},
	} {
		start := wide{I8: 9, I: 7, B: true, S: "kept", hidden: 3}
		got, want := start, start
		err := got.Restore(c.data)
		wantErr := gob.NewDecoder(bytes.NewReader(c.data)).Decode(&want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want {
			t.Errorf("%s: %+v, %v; a fresh decoder gives %+v, %v", c.name, got, err, want, wantErr)
		}
	}
}

// wireOf returns wide's descriptor prefix and type id as one encoder sends
// them: its first stream is the descriptors and a value, its second the
// value alone (count, type id, 0).
func wireOf(t *testing.T) (prefix, typeID []byte) {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&wide{}); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(&wide{}); err != nil {
		t.Fatal(err)
	}
	all := buf.Bytes()
	second := all[first:]
	return all[:first-len(second)], second[1 : len(second)-1]
}
