package proctest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"demosmp/internal/proc"
)

// FreshGob encodes v the way every gob-backed body did before
// proc.GobState: with a gob.Encoder made for the one call.
func FreshGob(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("fresh gob encode of %T: %v", v, err)
	}
	return buf.Bytes()
}

// CheckGobCodec holds the Snapshot/Restore of one body type (a
// proc.GobState) to what lets it stand in for fresh gob: for every state,
// whatever was snapshotted or restored before it,
//
//   - Snapshot returns the bytes a fresh gob.Encoder writes (gob walks a map
//     in Go's random order, so a state holding a map of two or more entries
//     is held to the length and to the round trip instead);
//   - Restore of those bytes, and of the fresh encoder's, fills a new body
//     exactly as a fresh gob.Decoder does, and re-encodes to the same bytes;
//   - every truncation of a snapshot fails as it fails in a fresh decoder,
//     and the good snapshot still restores right after.
//
// states should include the zero state. newBody makes an empty body of the
// type, as the kernel's registry does on a migration's destination.
func CheckGobCodec(t *testing.T, newBody func() proc.Body, states ...proc.Body) {
	t.Helper()
	freshDecode := func(data []byte) (proc.Body, error) {
		b := newBody()
		return b, gob.NewDecoder(bytes.NewReader(data)).Decode(b)
	}
	same := func(what string, x proc.Body, got, want []byte) {
		t.Helper()
		if GobIsOrdered(x) && !bytes.Equal(got, want) {
			t.Fatalf("%s of %+v:\n got %x\nwant %x", what, x, got, want)
		} else if len(got) != len(want) {
			t.Fatalf("%s of %+v: %d bytes, want %d", what, x, len(got), len(want))
		}
	}

	// Forward, then backward: the second pass meets every state with a
	// different call history than the first.
	order := make([]int, 0, 2*len(states))
	for i := range states {
		order = append(order, i)
	}
	for i := len(states) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for _, i := range order {
		x := states[i]
		want := FreshGob(t, x)
		snap, err := x.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot of %+v: %v", x, err)
		}
		same("Snapshot", x, snap, want)

		ref, err := freshDecode(want)
		if err != nil {
			t.Fatalf("fresh decode of %+v: %v", x, err)
		}
		for _, blob := range [][]byte{snap, want} {
			y := newBody()
			if err := y.Restore(blob); err != nil {
				t.Fatalf("Restore of %+v: %v", x, err)
			}
			if !reflect.DeepEqual(y, ref) {
				t.Fatalf("Restore of %+v gave %+v, a fresh decoder gives %+v", x, y, ref)
			}
			same("re-encoding the restored copy", x, FreshGob(t, y), want)
		}

		for cut := 0; cut < len(snap); cut++ {
			_, wantErr := freshDecode(snap[:cut])
			gotErr := newBody().Restore(snap[:cut])
			if wantErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("Restore of %+v cut to %d of %d bytes: error %v, a fresh decoder says %v",
					x, cut, len(snap), gotErr, wantErr)
			}
			y := newBody()
			if err := y.Restore(snap); err != nil || !reflect.DeepEqual(y, ref) {
				t.Fatalf("Restore of %+v after a bad blob: %+v, %v", x, y, err)
			}
		}
	}
}

// GobIsOrdered reports whether gob encodes v to the same bytes every time:
// whether v holds no map with two or more entries, which gob walks in Go's
// random order.
func GobIsOrdered(v any) bool { return !hasMultiEntryMap(reflect.ValueOf(v)) }

// hasMultiEntryMap reports whether v holds, at any depth, a map with two or
// more entries.
func hasMultiEntryMap(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		return !v.IsNil() && hasMultiEntryMap(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if hasMultiEntryMap(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if hasMultiEntryMap(v.Index(i)) {
				return true
			}
		}
	case reflect.Map:
		if v.Len() > 1 {
			return true
		}
		for it := v.MapRange(); it.Next(); {
			if hasMultiEntryMap(it.Value()) {
				return true
			}
		}
	}
	return false
}
