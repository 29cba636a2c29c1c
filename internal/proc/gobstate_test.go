package proc

import (
	"bytes"
	"encoding/gob"
	"testing"
)

type plainState struct {
	N    int
	Tags []string
}

type ifaceState struct {
	V any
}

type ifaceInner struct{ A int }

func freshGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGobStateLazy: the zero GobState holds nothing until first used, and
// Restore works before any Snapshot.
func TestGobStateLazy(t *testing.T) {
	var g GobState[plainState]
	if g.enc != nil || g.dec != nil || g.prefix != nil || g.out.Cap() != 0 || g.in.buf != nil {
		t.Fatal("zero GobState is not empty")
	}
	want := plainState{N: -7, Tags: []string{"a", ""}}
	var got plainState
	if err := g.Restore(&got, freshGob(t, &want)); err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || len(got.Tags) != 2 {
		t.Fatalf("got %+v", got)
	}
}

// TestGobStateTakesFlatPath: set-up turns the flat path on for a flat T
// only, and a flat round trip leaves the gob decoder unstarted.
func TestGobStateTakesFlatPath(t *testing.T) {
	type flatState struct {
		N int
		S string
	}
	var flat GobState[flatState]
	blob, err := flat.Snapshot(&flatState{N: -3, S: "s"})
	if err != nil {
		t.Fatal(err)
	}
	var back flatState
	if err := flat.Restore(&back, blob); err != nil || back != (flatState{N: -3, S: "s"}) {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	if flat.typeID == nil || len(flat.flat) != 2 || flat.dec != nil {
		t.Fatalf("flat state: type id %x, %d fields, decoder started %v", flat.typeID, len(flat.flat), flat.dec != nil)
	}
	var plain GobState[plainState]
	if _, err := plain.Snapshot(&plainState{N: 1}); err != nil {
		t.Fatal(err)
	}
	if plain.typeID != nil || plain.flat != nil {
		t.Fatal("a state with a slice took the flat path")
	}
}

// TestGobStateForeignBlob: bytes that do not start with T's descriptors go
// to a fresh decoder, which applies gob's own field matching and reports
// gob's own error, and leave the long-lived codec usable.
func TestGobStateForeignBlob(t *testing.T) {
	var g GobState[plainState]
	type renamed struct{ N, M int }
	type mistyped struct{ N string }
	var got plainState
	if err := g.Restore(&got, freshGob(t, &renamed{N: 9, M: 1})); err != nil || got.N != 9 {
		t.Fatalf("a compatible foreign struct: %+v, %v", got, err)
	}
	foreign := freshGob(t, &mistyped{N: "x"})
	want := gob.NewDecoder(bytes.NewReader(foreign)).Decode(&plainState{})
	if err := g.Restore(&got, foreign); want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("an incompatible foreign struct: error %v, fresh gob says %v", err, want)
	}
	blob, err := g.Snapshot(&plainState{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	got = plainState{}
	if err := g.Restore(&got, blob); err != nil || got.N != 3 {
		t.Fatalf("after a foreign blob: %+v, %v", got, err)
	}
}

// TestGobStateInterfaceFieldLimit documents why GobState's users may hold no
// interface-typed field: a fresh encoder describes the concrete type behind
// the interface in every stream, the long-lived one only in its first.
func TestGobStateInterfaceFieldLimit(t *testing.T) {
	gob.Register(ifaceInner{})
	var g GobState[ifaceState]
	x := &ifaceState{V: ifaceInner{A: 1}}
	for i := 0; i < 2; i++ {
		got, err := g.Snapshot(x)
		if err != nil {
			t.Fatal(err)
		}
		if same := bytes.Equal(got, freshGob(t, x)); same != (i == 0) {
			t.Fatalf("snapshot %d of an interface-carrying state: equal to fresh gob = %v", i, same)
		}
	}
}
