package trace

// Test-only queries over the retained records.

// Filter returns the retained records in cat, in order.
func (t *Tracer) Filter(cat Category) []Record {
	var out []Record
	for _, part := range t.parts() {
		for i := range part {
			if part[i].Cat() == cat {
				out = append(out, part[i])
			}
		}
	}
	return out
}

// Find returns the first record with the given event name.
func (t *Tracer) Find(event string) (Record, bool) {
	for _, part := range t.parts() {
		for i := range part {
			if part[i].Event() == event {
				return part[i], true
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
			if part[i].Event() == event {
				n++
			}
		}
	}
	return n
}
