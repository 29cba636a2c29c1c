package link

import (
	"encoding/binary"
	"fmt"

	"demosmp/internal/addr"
)

// ID is a process-local link name: an index into the process's link table.
// ID 0 is never valid, so the zero value means "no link".
type ID uint16

// NilID is the invalid link id.
const NilID ID = 0

func (id ID) String() string { return fmt.Sprintf("l%d", uint16(id)) }

// DefaultCap is the default maximum number of links a process may hold.
// The paper notes the swappable state size "depend[s] on the size of the
// link table"; bounding it keeps that size meaningful.
const DefaultCap = 1024

// Table is a process's link table: its complete encapsulation of every
// connection to the operating system, system resources, and other processes
// (paper §2.2, Figure 2-2). The table is owned and manipulated by the
// kernel; processes refer to entries only by ID.
type Table struct {
	slots []Link // index 0 unused
	free  []ID
	count int
	cap   int
}

// Reset empties t and bounds it at capacity (DefaultCap if <= 0), keeping
// the slot and free-list backing for the next owner. An empty table has no
// slot backing at all until its first Insert: most short-lived processes
// never hold a link.
func (t *Table) Reset(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	clear(t.slots)
	t.slots, t.free, t.count, t.cap = t.slots[:0], t.free[:0], 0, capacity
}

// A nil *Table is the empty table of DefaultCap for every read method and
// Remove, so a process that never holds a link carries none (its first
// Insert needs a real one). emptyTable stands in for it and is never written.
var emptyTable = Table{cap: DefaultCap}

// Len returns the number of live links.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// ErrTableFull is returned by Insert when the table is at capacity.
var ErrTableFull = fmt.Errorf("link: table full")

// Insert adds a link and returns its new ID.
func (t *Table) Insert(l Link) (ID, error) {
	if l.IsNil() {
		return NilID, fmt.Errorf("link: insert nil link")
	}
	if t.count >= t.cap {
		return NilID, ErrTableFull
	}
	var id ID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[id] = l
	} else {
		if len(t.slots) == 0 { // first link: index 0 is never used
			if cap(t.slots) == 0 {
				t.slots = make([]Link, 0, 8)
			}
			t.slots = append(t.slots, Link{})
		}
		id = ID(len(t.slots))
		t.slots = append(t.slots, l)
	}
	t.count++
	return id, nil
}

// Get returns the link stored at id.
func (t *Table) Get(id ID) (Link, bool) {
	if t == nil || int(id) <= 0 || int(id) >= len(t.slots) || t.slots[id].IsNil() {
		return Link{}, false
	}
	return t.slots[id], true
}

// Remove deletes the link at id, reporting whether it existed.
func (t *Table) Remove(id ID) bool {
	if _, ok := t.Get(id); !ok {
		return false
	}
	t.slots[id] = Link{}
	t.free = append(t.free, id)
	t.count--
	return true
}

// UpdateAddr rewrites the last-known machine of every link that points at
// process pid, returning how many links were updated. This is the link
// update of paper §5: "All links in the sending process's link table that
// point to the migrated process are then updated to point to the new
// location."
func (t *Table) UpdateAddr(pid addr.ProcessID, machine addr.MachineID) int {
	if t == nil {
		return 0
	}
	n := 0
	for i := 1; i < len(t.slots); i++ {
		l := &t.slots[i]
		if !l.IsNil() && l.Addr.ID == pid && l.Addr.LastKnown != machine {
			l.Addr.LastKnown = machine
			n++
		}
	}
	return n
}

// AppendSnapshot appends the table's wire form to b: the dominant part of
// the process's swappable state, frozen directly into a reusable scratch
// buffer without an intermediate copy. Layout: cap(2) nextSlot(2) count(2)
// then count × (id(2) + link wire form).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (t *Table) AppendSnapshot(b []byte) []byte {
	if t == nil {
		t = &emptyTable
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(t.cap))
	b = binary.LittleEndian.AppendUint16(b, uint16(max(len(t.slots), 1))) // next slot: 1 with no backing yet
	b = binary.LittleEndian.AppendUint16(b, uint16(t.count))
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].IsNil() {
			continue
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(i))
		b = Encode(b, t.slots[i])
	}
	return b
}

// RestoreTableInto decodes an AppendSnapshot encoding into t (a zero Table
// is fine), reusing t's slot and free-list backing arrays when they are
// large enough. Any previous contents of t are discarded; link IDs are
// preserved, so process-held IDs remain valid after migration.
func RestoreTableInto(t *Table, b []byte) error {
	if len(b) < 6 {
		return fmt.Errorf("link: short table snapshot")
	}
	capacity := int(binary.LittleEndian.Uint16(b))
	nextSlot := int(binary.LittleEndian.Uint16(b[2:]))
	count := int(binary.LittleEndian.Uint16(b[4:]))
	b = b[6:]
	if nextSlot < 1 {
		nextSlot = 1
	}
	if cap(t.slots) >= nextSlot {
		t.slots = t.slots[:nextSlot]
		for i := range t.slots {
			t.slots[i] = Link{}
		}
	} else {
		t.slots = make([]Link, nextSlot)
	}
	t.free = t.free[:0]
	t.count = 0
	t.cap = capacity
	for i := 0; i < count; i++ {
		if len(b) < 2 {
			return fmt.Errorf("link: truncated table snapshot")
		}
		id := ID(binary.LittleEndian.Uint16(b))
		var l Link
		var err error
		l, b, err = Decode(b[2:])
		if err != nil {
			return err
		}
		if int(id) <= 0 || int(id) >= nextSlot {
			return fmt.Errorf("link: snapshot id %d out of range", id)
		}
		t.slots[id] = l
		t.count++
	}
	// Rebuild the free list from the holes.
	for i := nextSlot - 1; i >= 1; i-- {
		if t.slots[i].IsNil() {
			t.free = append(t.free, ID(i))
		}
	}
	return nil
}
