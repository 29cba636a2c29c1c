package addr

// SameProcess reports whether two addresses name the same process,
// regardless of their (possibly stale) location hints.
func (a ProcessAddr) SameProcess(b ProcessAddr) bool { return a.ID == b.ID }
