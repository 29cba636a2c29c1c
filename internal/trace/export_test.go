package trace

import "slices"

// Test-only queries over the retained records.

// Filter returns the retained records in cat, in order.
func (t *Tracer) Filter(cat Category) []Record {
	var out []Record
	for _, part := range t.parts() {
		for i := range part {
			if part[i].site.Cat() == cat {
				out = append(out, t.record(&part[i]))
			}
		}
	}
	return out
}

// Find returns the first record with the given event name.
func (t *Tracer) Find(event string) (Record, bool) {
	for _, part := range t.parts() {
		for i := range part {
			if part[i].site.Event() == event {
				return t.record(&part[i]), true
			}
		}
	}
	return Record{}, false
}

// Count returns how many retained records have the given event name.
func (t *Tracer) Count(event string) int {
	n := 0
	for _, part := range t.parts() {
		for i := range part {
			if part[i].site.Event() == event {
				n++
			}
		}
	}
	return n
}

// TableStrings returns the strings the string table holds, sorted.
func (t *Tracer) TableStrings() []string {
	var out []string
	for _, e := range t.strs.e {
		if e.s != "" {
			out = append(out, e.s)
		}
	}
	slices.Sort(out)
	return out
}
