package link

import "demosmp/internal/addr"

// NewTable returns an empty table bounded at capacity (DefaultCap if <= 0).
func NewTable(capacity int) *Table {
	t := &Table{}
	t.Reset(capacity)
	return t
}

// Cap returns the table's maximum size.
func (t *Table) Cap() int { return t.cap }

// CountTo returns how many live links point at pid.
func (t *Table) CountTo(pid addr.ProcessID) int {
	n := 0
	for i := 1; i < len(t.slots); i++ {
		if !t.slots[i].IsNil() && t.slots[i].Addr.ID == pid {
			n++
		}
	}
	return n
}

// StaleTo returns how many live links point at pid with a last-known machine
// different from machine.
func (t *Table) StaleTo(pid addr.ProcessID, machine addr.MachineID) int {
	n := 0
	for i := 1; i < len(t.slots); i++ {
		l := t.slots[i]
		if !l.IsNil() && l.Addr.ID == pid && l.Addr.LastKnown != machine {
			n++
		}
	}
	return n
}

// ForEach calls fn for every live link in increasing ID order.
func (t *Table) ForEach(fn func(ID, Link)) {
	for i := 1; i < len(t.slots); i++ {
		if !t.slots[i].IsNil() {
			fn(ID(i), t.slots[i])
		}
	}
}
