// Package trace records structured simulation events.
//
// The protocol tests use it to assert the shape of the paper's figures —
// the 8 migration steps of Figure 3-1, the forwarded-message path of
// Figure 4-1, and the link update of Figure 5-1 — and the cmd/demosnet
// binary can stream it for human inspection.
package trace

import (
	"fmt"
	"strings"

	"demosmp/internal/addr"
	"demosmp/internal/sim"
)

// Category groups related events.
type Category string

const (
	CatMigrate    Category = "migrate"
	CatForward    Category = "forward"
	CatLinkUpdate Category = "linkupdate"
	CatDeliver    Category = "deliver"
	CatProc       Category = "proc"
	CatData       Category = "data"
	CatConsole    Category = "console"
	CatPolicy     Category = "policy"
)

// Record is one traced event.
type Record struct {
	T       sim.Time
	Machine addr.MachineID
	Cat     Category
	Event   string // stable, test-friendly identifier, e.g. "step1-remove-from-execution"
	Detail  string
}

func (r Record) String() string {
	return fmt.Sprintf("%-12v %-4v %-10s %-32s %s", r.T, r.Machine, r.Cat, r.Event, r.Detail)
}

// Tracer collects Records in a bounded ring. The zero value is a disabled
// tracer that drops everything, so hot paths can call Emit unconditionally.
type Tracer struct {
	recs    []Record
	max     int
	dropped uint64
	sink    func(Record)
	clock   func() sim.Time
}

// New returns an enabled tracer keeping at most max records (0 = 64k).
func New(clock func() sim.Time, max int) *Tracer {
	if max <= 0 {
		max = 65536
	}
	return &Tracer{max: max, clock: clock}
}

// SetSink also hands every record to fn as it is emitted (the ring may
// drop old records; the sink sees them all).
func (t *Tracer) SetSink(fn func(Record)) {
	if t != nil {
		t.sink = fn
	}
}

// Emit records an event. Safe on a nil Tracer.
func (t *Tracer) Emit(m addr.MachineID, cat Category, event, detail string) {
	if t == nil || t.clock == nil {
		return
	}
	r := Record{T: t.clock(), Machine: m, Cat: cat, Event: event, Detail: detail}
	if len(t.recs) >= t.max {
		// Drop the oldest half to amortize.
		copy(t.recs, t.recs[len(t.recs)/2:])
		t.recs = t.recs[:len(t.recs)-len(t.recs)/2]
		t.dropped++
	}
	t.recs = append(t.recs, r)
	if t.sink != nil {
		t.sink(r)
	}
}

// Emitf is Emit with a formatted detail string.
func (t *Tracer) Emitf(m addr.MachineID, cat Category, event, format string, args ...any) {
	if t == nil {
		return
	}
	t.Emit(m, cat, event, fmt.Sprintf(format, args...))
}

// Records returns a copy of the retained records in emission order.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	return append([]Record(nil), t.recs...)
}

// Filter returns the retained records in cat, in order.
func (t *Tracer) Filter(cat Category) []Record {
	var out []Record
	if t == nil {
		return out
	}
	for _, r := range t.recs {
		if r.Cat == cat {
			out = append(out, r)
		}
	}
	return out
}

// Events returns just the event names of records matching cat (all
// categories if cat is empty), preserving order. Handy for asserting
// protocol step sequences.
func (t *Tracer) Events(cat Category) []string {
	var out []string
	if t == nil {
		return out
	}
	for _, r := range t.recs {
		if cat == "" || r.Cat == cat {
			out = append(out, r.Event)
		}
	}
	return out
}

// Find returns the first record with the given event name.
func (t *Tracer) Find(event string) (Record, bool) {
	if t != nil {
		for _, r := range t.recs {
			if r.Event == event {
				return r, true
			}
		}
	}
	return Record{}, false
}

// Count returns how many retained records have the given event name.
func (t *Tracer) Count(event string) int {
	n := 0
	if t != nil {
		for _, r := range t.recs {
			if r.Event == event {
				n++
			}
		}
	}
	return n
}

// String renders all retained records, one per line.
func (t *Tracer) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for _, r := range t.recs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
