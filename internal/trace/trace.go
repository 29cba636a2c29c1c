// Package trace records structured simulation events.
//
// The protocol tests use it to assert the shape of the paper's figures —
// the 8 migration steps of Figure 3-1, the forwarded-message path of
// Figure 4-1, and the link update of Figure 5-1 — and the cmd/demosnet
// binary can stream it for human inspection.
package trace

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"demosmp/internal/addr"
	"demosmp/internal/sim"
)

// Category groups related events.
type Category uint8

const (
	CatAll Category = iota // the zero value: no category; Events(CatAll) matches every record
	CatMigrate
	CatForward
	CatLinkUpdate
	CatDeliver
	CatProc
	CatData
	CatConsole
	CatPolicy
)

var catNames = [...]string{
	CatAll: "", CatMigrate: "migrate", CatForward: "forward", CatLinkUpdate: "linkupdate",
	CatDeliver: "deliver", CatProc: "proc", CatData: "data", CatConsole: "console", CatPolicy: "policy",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "cat(" + strconv.Itoa(int(c)) + ")"
}

// Record is one traced event. Its detail text is rendered when something
// reads it (Detail, String), not when it is emitted: a deferred record
// carries a static format and a few scalar arguments instead.
type Record struct {
	T       sim.Time
	Machine addr.MachineID
	kinds   uint16 // argKind of argument i in bits 3i..3i+2; argNone ends the list
	Cat     Category
	words   [argWords]uint32 // the scalar arguments in order: an Int takes two words, a PID or Machine one
	Event   string           // stable, test-friendly identifier, e.g. "step1-remove-from-execution"

	text string // the detail itself, or (with arguments) the format that renders it
	str  string // the one Str argument, if any
}

// A deferred record carries at most maxArgs arguments (their 3-bit kinds
// fill Record.kinds) whose scalars fit argWords words: sized by the widest
// emit site, the kernel's step2 record (a PID, a Machine and three Ints).
const (
	maxArgs  = 5
	argWords = 8
)

type argKind uint8

const (
	argNone argKind = iota
	argInt
	argPID
	argMachine
	argStr
)

// Arg is one argument of a deferred detail format, built by PID, Machine,
// Int or Str. It renders exactly as the value it was built from renders
// under fmt.
type Arg struct {
	kind argKind
	n    int64
	s    string
}

// PID defers an addr.ProcessID.
func PID(p addr.ProcessID) Arg { return Arg{kind: argPID, n: int64(p.Creator)<<16 | int64(p.Local)} }

// Machine defers an addr.MachineID.
func Machine(m addr.MachineID) Arg { return Arg{kind: argMachine, n: int64(m)} }

// Int defers an int.
func Int(n int) Arg { return Arg{kind: argInt, n: int64(n)} }

// Str defers a string that already exists (a body kind, the constant name
// of a state, region or message kind, an error's text). A record holds at
// most one.
func Str(s string) Arg { return Arg{kind: argStr, s: s} }

// Detail renders the record's detail text.
func (r Record) Detail() string {
	if r.kinds == 0 {
		return r.text
	}
	var args [maxArgs]any
	n, w := 0, 0
	for kinds := r.kinds; kinds != 0; kinds >>= 3 {
		switch argKind(kinds & 7) {
		case argPID:
			args[n] = addr.ProcessID{Creator: addr.MachineID(r.words[w] >> 16), Local: addr.LocalUID(r.words[w])}
			w++
		case argMachine:
			args[n] = addr.MachineID(r.words[w])
			w++
		case argInt:
			args[n] = int(int64(uint64(r.words[w]) | uint64(r.words[w+1])<<32))
			w += 2
		case argStr:
			args[n] = r.str
		}
		n++
	}
	return fmt.Sprintf(r.text, args[:n]...)
}

func (r Record) String() string {
	return fmt.Sprintf("%-12v %-4v %-10s %-32s %s", r.T, r.Machine, r.Cat, r.Event, r.Detail())
}

// Tracer collects Records in a bounded ring. A nil Tracer is disabled and
// drops everything, so hot paths can emit unconditionally.
type Tracer struct {
	// The ring's slots 0..max-1 live in chunks that are added as records
	// arrive and never copied: chunk k holds 2^k slots starting at slot
	// 2^k - 1 (the last chunk is cut to max), so a tracer holding n records
	// owns fewer than 2n slots, as a slice grown by append would, without
	// append's reallocate-and-copy at every step.
	chunks [][]Record
	n      int // slots in use; once n == max the ring overwrites in place
	head   int // the oldest record's slot once n == max
	max    int
	sink   func(Record)
	clock  func() sim.Time
}

// New returns an enabled tracer keeping at most max records (0 = 64k). The
// ring is grown as records arrive, never preallocated.
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

// Emit records an event whose detail text already exists. Safe on a nil
// Tracer.
func (t *Tracer) Emit(m addr.MachineID, cat Category, event, detail string) {
	t.write(m, cat, event, detail, nil)
}

// Emitf records an event whose detail is format applied to args, rendered
// only when the record is read. format must be static and take the args in
// order under fmt's rules. The args must fit a record: at most five, at most
// one of them a Str, and no more than eight argument words, of which an Int
// takes two and a PID or Machine one. Safe on a nil Tracer; allocates nothing.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestHotPathZeroAlloc ("trace emit (deferred)") and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (t *Tracer) Emitf(m addr.MachineID, cat Category, event, format string, args ...Arg) {
	t.write(m, cat, event, format, args)
}

// write is the one record writer: it fills the next ring slot field by
// field, in place, and zeroes the argument words args leave unset, so a
// record never carries what the slot held before and records of the same
// event compare equal wherever they were written.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestHotPathZeroAlloc ("trace emit (deferred)") and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (t *Tracer) write(m addr.MachineID, cat Category, event, text string, args []Arg) {
	if t == nil || t.clock == nil {
		return
	}
	if len(args) > maxArgs {
		panic("trace: Emitf takes at most five arguments")
	}
	r := t.slot()
	r.T, r.Machine, r.Cat, r.Event, r.text = t.clock(), m, cat, event, text
	r.kinds, r.str = 0, ""
	w, strs := 0, 0
	for i, a := range args {
		r.kinds |= uint16(a.kind) << (3 * i)
		switch a.kind {
		case argStr:
			r.str = a.s
			strs++
		case argInt:
			if w+2 <= argWords {
				r.words[w], r.words[w+1] = uint32(a.n), uint32(a.n>>32)
			}
			w += 2
		default:
			if w < argWords {
				r.words[w] = uint32(a.n)
			}
			w++
		}
	}
	if strs > 1 || w > argWords {
		panic("trace: Emitf arguments do not fit a record (one Str, eight words)")
	}
	clear(r.words[w:])
	if t.sink != nil {
		t.sink(*r)
	}
}

// slot returns the ring slot the next record goes into: a new one until the
// ring is full, then the oldest.
func (t *Tracer) slot() *Record {
	i := t.n
	if i < t.max {
		t.n++
	} else {
		i = t.head
		if t.head++; t.head == t.max {
			t.head = 0
		}
	}
	k, off := chunkOf(i)
	if k == len(t.chunks) {
		t.chunks = append(t.chunks, make([]Record, min(1<<k, t.max-i)))
	}
	return &t.chunks[k][off]
}

// chunkOf returns the chunk holding ring slot i and i's offset in it.
func chunkOf(i int) (k, off int) {
	k = bits.Len(uint(i+1)) - 1
	return k, i + 1 - 1<<k
}

// parts returns the retained records as runs, oldest first. Safe on a nil
// Tracer.
func (t *Tracer) parts() [][]Record {
	if t == nil {
		return nil
	}
	var runs [][]Record
	for _, span := range [2][2]int{{t.head, t.n}, {0, t.head}} {
		for i := span[0]; i < span[1]; {
			k, off := chunkOf(i)
			run := t.chunks[k][off:min(len(t.chunks[k]), off+span[1]-i)]
			runs = append(runs, run)
			i += len(run)
		}
	}
	return runs
}

// Records returns a copy of the retained records in emission order.
func (t *Tracer) Records() []Record {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Record, 0, t.n)
	for _, part := range t.parts() {
		out = append(out, part...)
	}
	return out
}

// Events returns just the event names of records matching cat (all
// categories if cat is CatAll), preserving order. Handy for asserting
// protocol step sequences.
func (t *Tracer) Events(cat Category) []string {
	var out []string
	for _, part := range t.parts() {
		for i := range part {
			if cat == CatAll || part[i].Cat == cat {
				out = append(out, part[i].Event)
			}
		}
	}
	return out
}

// String renders all retained records, one per line.
func (t *Tracer) String() string {
	var b strings.Builder
	for _, part := range t.parts() {
		for i := range part {
			b.WriteString(part[i].String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
