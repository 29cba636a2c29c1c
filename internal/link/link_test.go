package link

import (
	"math/rand"
	"testing"
	"testing/quick"

	"demosmp/internal/addr"
)

func mkAddr(m, c, l uint16) addr.ProcessAddr {
	return addr.At(addr.ProcessID{Creator: addr.MachineID(c), Local: addr.LocalUID(l)}, addr.MachineID(m))
}

func TestLinkRoundTrip(t *testing.T) {
	f := func(m, c, l, at uint16, off, length uint32) bool {
		if c == 0 && l == 0 {
			c = 1 // avoid nil address
		}
		in := Link{Addr: mkAddr(m, c, l), Attrs: Attr(at), Area: DataArea{Offset: off, Length: length}}
		b := Encode(nil, in)
		if len(b) != WireSize {
			return false
		}
		out, rest, err := Decode(b)
		return err == nil && len(rest) == 0 && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShort(t *testing.T) {
	l := Link{Addr: mkAddr(1, 1, 1)}
	b := Encode(nil, l)
	for i := 0; i < len(b); i++ {
		if _, _, err := Decode(b[:i]); err == nil {
			t.Fatalf("Decode accepted %d-byte truncation", i)
		}
	}
}

func TestAttrString(t *testing.T) {
	a := AttrDeliverToKernel | AttrReply
	if s := a.String(); s != "DTK|REPLY" {
		t.Fatalf("Attr.String = %q", s)
	}
	if s := Attr(0).String(); s != "none" {
		t.Fatalf("zero Attr.String = %q", s)
	}
}

func TestDataAreaContains(t *testing.T) {
	d := DataArea{Offset: 100, Length: 50}
	cases := []struct {
		off, n uint32
		want   bool
	}{
		{0, 50, true},
		{0, 51, false},
		{49, 1, true},
		{50, 1, false},
		{10, 40, true},
		{0xFFFFFFFF, 2, false}, // overflow
		{50, 0, true},
	}
	for _, c := range cases {
		if got := d.Contains(c.off, c.n); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.off, c.n, got, c.want)
		}
	}
}

func TestTableInsertGetRemove(t *testing.T) {
	tb := NewTable(0)
	l1 := Link{Addr: mkAddr(1, 1, 1)}
	l2 := Link{Addr: mkAddr(2, 2, 2)}
	id1, err := tb.Insert(l1)
	if err != nil || id1 == NilID {
		t.Fatalf("insert: %v %v", id1, err)
	}
	id2, _ := tb.Insert(l2)
	if id1 == id2 {
		t.Fatal("duplicate ids")
	}
	if got, ok := tb.Get(id1); !ok || got != l1 {
		t.Fatalf("Get(id1) = %v %v", got, ok)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if !tb.Remove(id1) || tb.Remove(id1) {
		t.Fatal("Remove semantics wrong")
	}
	if _, ok := tb.Get(id1); ok {
		t.Fatal("removed link still present")
	}
	// Freed slot gets reused.
	id3, _ := tb.Insert(l1)
	if id3 != id1 {
		t.Fatalf("freed slot not reused: got %v want %v", id3, id1)
	}
}

func TestTableRejectsNilAndZeroID(t *testing.T) {
	tb := NewTable(0)
	if _, err := tb.Insert(Link{}); err == nil {
		t.Fatal("inserted nil link")
	}
	if _, ok := tb.Get(NilID); ok {
		t.Fatal("Get(NilID) succeeded")
	}
	if _, ok := tb.Get(999); ok {
		t.Fatal("Get(out of range) succeeded")
	}
}

func TestTableCapacity(t *testing.T) {
	tb := NewTable(2)
	tb.Insert(Link{Addr: mkAddr(1, 1, 1)})
	tb.Insert(Link{Addr: mkAddr(1, 1, 2)})
	if _, err := tb.Insert(Link{Addr: mkAddr(1, 1, 3)}); err != ErrTableFull {
		t.Fatalf("expected ErrTableFull, got %v", err)
	}
}

func TestUpdateAddr(t *testing.T) {
	tb := NewTable(0)
	target := addr.ProcessID{Creator: 1, Local: 7}
	other := addr.ProcessID{Creator: 1, Local: 8}
	tb.Insert(Link{Addr: addr.At(target, 1)})
	tb.Insert(Link{Addr: addr.At(target, 1)})
	tb.Insert(Link{Addr: addr.At(other, 1)})
	tb.Insert(Link{Addr: addr.At(target, 3)}) // already up to date

	if n := tb.StaleTo(target, 3); n != 2 {
		t.Fatalf("StaleTo = %d, want 2", n)
	}
	if n := tb.UpdateAddr(target, 3); n != 2 {
		t.Fatalf("UpdateAddr = %d, want 2", n)
	}
	if n := tb.StaleTo(target, 3); n != 0 {
		t.Fatalf("links still stale after update: %d", n)
	}
	if n := tb.CountTo(target); n != 3 {
		t.Fatalf("CountTo = %d, want 3", n)
	}
	// The unrelated link is untouched.
	found := 0
	tb.ForEach(func(_ ID, l Link) {
		if l.Addr.ID == other && l.Addr.LastKnown == 1 {
			found++
		}
	})
	if found != 1 {
		t.Fatal("unrelated link was modified")
	}
}

func TestSnapshotRestore(t *testing.T) {
	tb := NewTable(64)
	ids := make([]ID, 0)
	for i := 1; i <= 10; i++ {
		id, _ := tb.Insert(Link{Addr: mkAddr(uint16(i), 1, uint16(i)), Attrs: Attr(i)})
		ids = append(ids, id)
	}
	// Punch holes so the snapshot has gaps.
	tb.Remove(ids[2])
	tb.Remove(ids[7])

	snap := tb.AppendSnapshot(nil)
	rt := &Table{}
	if err := RestoreTableInto(rt, snap); err != nil {
		t.Fatal(err)
	}
	if rt.Len() != tb.Len() || rt.Cap() != tb.Cap() {
		t.Fatalf("len/cap mismatch: %d/%d vs %d/%d", rt.Len(), rt.Cap(), tb.Len(), tb.Cap())
	}
	tb.ForEach(func(id ID, l Link) {
		got, ok := rt.Get(id)
		if !ok || got != l {
			t.Errorf("id %v: got %v %v, want %v", id, got, ok, l)
		}
	})
	// Holes stay holes.
	if _, ok := rt.Get(ids[2]); ok {
		t.Fatal("removed id resurrected by restore")
	}
	// Restored table still usable: insert goes into a hole.
	id, err := rt.Insert(Link{Addr: mkAddr(9, 9, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[2] && id != ids[7] {
		t.Fatalf("insert after restore got %v, want a freed slot", id)
	}
}

// TestEmptyTableHasNoBackingAndResetRecycles: a table with no links owns
// no slot array, yet snapshots exactly as one that does (next slot 1, so
// checkpoint bytes do not depend on when the backing was made); the first
// link still gets id 1; and Reset hands the next owner an empty table that
// reuses the backing and resolves none of the previous owner's ids.
func TestEmptyTableHasNoBackingAndResetRecycles(t *testing.T) {
	tb := NewTable(0)
	if tb.slots != nil || tb.Cap() != DefaultCap {
		t.Fatalf("empty table: slots %v cap %d", tb.slots, tb.Cap())
	}
	want := []byte{DefaultCap & 0xff, DefaultCap >> 8, 1, 0, 0, 0} // cap, next slot 1, count 0
	if got := tb.AppendSnapshot(nil); string(got) != string(want) {
		t.Fatalf("empty snapshot = %v, want %v", got, want)
	}
	if _, ok := tb.Get(1); ok {
		t.Fatal("empty table resolves id 1")
	}
	l := Link{Addr: mkAddr(2, 2, 2)}
	if id, err := tb.Insert(l); err != nil || id != 1 {
		t.Fatalf("first insert = %v, %v; want id 1", id, err)
	}
	tb.Insert(Link{Addr: mkAddr(3, 3, 3)})
	tb.Remove(1)
	backing := &tb.slots[0]

	tb.Reset(16)
	if tb.Len() != 0 || tb.Cap() != 16 || len(tb.free) != 0 {
		t.Fatalf("after Reset: len %d cap %d free %v", tb.Len(), tb.Cap(), tb.free)
	}
	for id := ID(0); id < 4; id++ {
		if _, ok := tb.Get(id); ok {
			t.Fatalf("id %v of the previous owner resolves after Reset", id)
		}
	}
	if got := tb.AppendSnapshot(nil); got[2] != 1 || got[4] != 0 {
		t.Fatalf("snapshot after Reset = %v", got)
	}
	if id, err := tb.Insert(l); err != nil || id != 1 || &tb.slots[0] != backing {
		t.Fatalf("insert after Reset = %v, %v (backing reused: %v)", id, err, &tb.slots[0] == backing)
	}
	if got, ok := tb.Get(2); ok {
		t.Fatalf("stale slot 2 visible after Reset: %v", got)
	}
}

// TestNilTableReadsAsEmpty: a process with no link yet holds a nil *Table,
// and every read of it, Remove and the snapshot behave as the empty
// Reset(DefaultCap) table does — the snapshot byte for byte, and without
// allocating, since it sits on the migration freeze path.
func TestNilTableReadsAsEmpty(t *testing.T) {
	var tb *Table
	if tb.Len() != 0 {
		t.Fatalf("nil table Len = %d", tb.Len())
	}
	if l, ok := tb.Get(1); ok || !l.IsNil() {
		t.Fatalf("nil table resolves id 1 to %v", l)
	}
	if tb.Remove(1) {
		t.Fatal("nil table removed id 1")
	}
	if n := tb.UpdateAddr(addr.ProcessID{Creator: 1, Local: 1}, 2); n != 0 {
		t.Fatalf("nil table updated %d links", n)
	}
	want := NewTable(0).AppendSnapshot(nil)
	buf := make([]byte, 0, 16)
	if got := tb.AppendSnapshot(buf); string(got) != string(want) {
		t.Fatalf("nil table snapshot = %v, want the empty table's %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { buf = tb.AppendSnapshot(buf[:0]) }); n != 0 {
		t.Fatalf("nil table snapshot allocates %v times", n)
	}
	var back Table
	if err := RestoreTableInto(&back, want); err != nil || back.Len() != 0 || back.Cap() != DefaultCap {
		t.Fatalf("restore of the nil snapshot: len %d cap %d, %v", back.Len(), back.Cap(), err)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if err := RestoreTableInto(&Table{}, []byte{1, 2}); err == nil {
		t.Fatal("restored short snapshot")
	}
	tb := NewTable(4)
	tb.Insert(Link{Addr: mkAddr(1, 1, 1)})
	snap := tb.AppendSnapshot(nil)
	if err := RestoreTableInto(&Table{}, snap[:len(snap)-3]); err == nil {
		t.Fatal("restored truncated snapshot")
	}
}

// Property: table behaves like a map under a random op sequence.
func TestTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tb := NewTable(128)
	model := map[ID]Link{}
	var live []ID
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert
			l := Link{Addr: mkAddr(uint16(rng.Intn(8)), 1, uint16(1+rng.Intn(50))), Attrs: Attr(rng.Intn(16))}
			id, err := tb.Insert(l)
			if err != nil {
				if len(model) < 128 {
					t.Fatalf("insert failed below cap: %v", err)
				}
				continue
			}
			if _, dup := model[id]; dup {
				t.Fatalf("id %v reused while live", id)
			}
			model[id] = l
			live = append(live, id)
		case op < 8: // remove
			if len(live) == 0 {
				continue
			}
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			if !tb.Remove(id) {
				t.Fatalf("remove of live id %v failed", id)
			}
			delete(model, id)
		default: // update
			pid := addr.ProcessID{Creator: 1, Local: addr.LocalUID(1 + rng.Intn(50))}
			m := addr.MachineID(rng.Intn(8))
			want := 0
			for id, l := range model {
				if l.Addr.ID == pid && l.Addr.LastKnown != m {
					l.Addr.LastKnown = m
					model[id] = l
					want++
				}
			}
			if got := tb.UpdateAddr(pid, m); got != want {
				t.Fatalf("UpdateAddr = %d, model says %d", got, want)
			}
		}
		if tb.Len() != len(model) {
			t.Fatalf("len diverged: %d vs %d", tb.Len(), len(model))
		}
	}
	for id, want := range model {
		if got, ok := tb.Get(id); !ok || got != want {
			t.Fatalf("final state diverged at %v: %v vs %v", id, got, want)
		}
	}
}
