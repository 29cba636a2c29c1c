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
	"sync"

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

// A Site is one trace point, declared once at package level by NewSite:
// its category, event name, detail format and argument kinds live in a
// fixed registry, so a record carries only the site's id and its
// arguments. Site 0 is no site; a zero Record renders empty.
type Site uint16

// ArgKind is the type of one argument of a site's format.
type ArgKind uint8

const (
	ArgInt     ArgKind = iota + 1 // an int, two argument words; build with Int
	ArgPID                        // an addr.ProcessID, one word; build with PID
	ArgMachine                    // an addr.MachineID, one word; build with Machine
	ArgStr                        // the record's one string, passed beside the words
)

// A site's arguments fit a record: at most one ArgStr and argWords words
// (an ArgInt takes two, the others one), so at most maxArgs in all.
const (
	argWords = 8
	maxArgs  = argWords + 1
	maxSites = 512
)

type siteInfo struct {
	event, format string
	cat           Category
	dynamic       bool  // registered by Emit: format "%s", one ArgStr
	nkinds        uint8 // the arguments, kinds[:nkinds]
	vals          uint8 // ... of which Vals: all but the ArgStr
	wide          uint8 // bit i: Val i is an ArgInt and takes two words
	kinds         [maxArgs]ArgKind
}

// The registry is a fixed array, not a heap object: the kernel's sites fill
// it at package init, in declaration order, so a site's id is the same in
// every shard and every run. Emit adds its (category, event) pairs at first
// use, under siteMu; a slot once written never changes, so readers go
// without the lock.
var (
	siteMu sync.Mutex
	sites  [maxSites]siteInfo
	nSites = 1 // slot 0 is the zero Site
)

// NewSite registers a trace point whose detail is format applied, under
// fmt's rules, to arguments of the given kinds in order. Call it from a
// package-level var declaration; a declaration identical to one already
// registered returns that site and takes no slot. It panics if the
// arguments would not fit a record or the registry is full.
func NewSite(cat Category, event, format string, kinds ...ArgKind) Site {
	siteMu.Lock()
	defer siteMu.Unlock()
	return register(siteInfo{event: event, format: format, cat: cat}, kinds)
}

// register returns the registered site equal to si with kinds, filling the
// next registry slot if there is none. siteMu must be held.
func register(si siteInfo, kinds []ArgKind) Site {
	if len(kinds) > maxArgs {
		panic("trace: " + si.event + ": too many arguments")
	}
	words, strs := 0, 0
	si.nkinds = uint8(len(kinds))
	for i, k := range kinds {
		si.kinds[i] = k
		switch k {
		case ArgStr:
			strs++
			continue
		case ArgInt:
			si.wide |= 1 << si.vals
			words++
		case ArgPID, ArgMachine:
		default:
			panic("trace: " + si.event + ": unknown argument kind")
		}
		words++
		si.vals++
	}
	if strs > 1 || words > argWords {
		panic("trace: " + si.event + ": arguments do not fit a record (one Str, eight words)")
	}
	for s := 1; s < nSites; s++ {
		if sites[s] == si {
			return Site(s)
		}
	}
	if nSites == maxSites {
		panic("trace: site registry full")
	}
	sites[nSites] = si
	nSites++
	return Site(nSites - 1)
}

// dynamicSite returns the site Emit records (cat, event) under, registering
// it at first use.
func dynamicSite(cat Category, event string) Site {
	siteMu.Lock()
	defer siteMu.Unlock()
	return register(siteInfo{event: event, format: "%s", cat: cat, dynamic: true}, []ArgKind{ArgStr})
}

// Sites returns every registered site, in id order.
func Sites() []Site {
	siteMu.Lock()
	defer siteMu.Unlock()
	out := make([]Site, 0, nSites-1)
	for s := 1; s < nSites; s++ {
		out = append(out, Site(s))
	}
	return out
}

// Event returns the site's event name: a stable, test-friendly identifier,
// e.g. "step1-remove-from-execution".
func (s Site) Event() string { return sites[s].event }

// Cat returns the site's category.
func (s Site) Cat() Category { return sites[s].cat }

// Format returns the site's detail format.
func (s Site) Format() string { return sites[s].format }

// Kinds returns the site's argument kinds, in the format's order.
func (s Site) Kinds() []ArgKind {
	si := &sites[s]
	return si.kinds[:si.nkinds:si.nkinds]
}

// Val is one word-sized argument of a site, built by PID, Machine or Int;
// the site supplies its kind.
type Val uint64

// PID passes an addr.ProcessID.
func PID(p addr.ProcessID) Val { return Val(uint32(p.Creator)<<16 | uint32(p.Local)) }

// Machine passes an addr.MachineID.
func Machine(m addr.MachineID) Val { return Val(m) }

// Int passes an int.
func Int(n int) Val { return Val(n) }

// Record is one traced event: 64 bytes. Its detail text is rendered when
// something reads it (Detail, String), not when it is emitted: the record
// holds its site's id and the site's arguments, and the site holds the
// category, event name and format.
type Record struct {
	T       sim.Time
	Machine addr.MachineID
	site    Site
	words   [argWords]uint32 // the Val arguments in order: an Int takes two words, a PID or Machine one
	str     string           // the site's one ArgStr argument, if any
}

// Event returns the record's event name.
func (r Record) Event() string { return r.site.Event() }

// Cat returns the record's category.
func (r Record) Cat() Category { return r.site.Cat() }

// Detail renders the record's detail text.
func (r Record) Detail() string {
	var args [maxArgs]any
	kinds, w := r.site.Kinds(), 0
	for n, k := range kinds {
		switch k {
		case ArgPID:
			args[n] = addr.ProcessID{Creator: addr.MachineID(r.words[w] >> 16), Local: addr.LocalUID(r.words[w])}
			w++
		case ArgMachine:
			args[n] = addr.MachineID(r.words[w])
			w++
		case ArgInt:
			args[n] = int(int64(uint64(r.words[w]) | uint64(r.words[w+1])<<32))
			w += 2
		case ArgStr:
			args[n] = r.str
		}
	}
	return fmt.Sprintf(r.site.Format(), args[:len(kinds)]...)
}

func (r Record) String() string {
	return fmt.Sprintf("%-12v %-4v %-10s %-32s %s", r.T, r.Machine, r.Cat(), r.Event(), r.Detail())
}

// Tracer collects Records in a bounded ring. A nil Tracer is disabled and
// drops everything, so hot paths can emit unconditionally.
type Tracer struct {
	// The ring's slots 0..max-1 live in chunks that are added as records
	// arrive and never copied: chunk k holds 2^k slots starting at slot
	// 2^k - 1 (the last chunk is cut to max), so a tracer holding n records
	// owns fewer than 2n slots, as a slice grown by append would, without
	// append's reallocate-and-copy at every step. The next record goes to
	// cur[at]; cur is the chunk starting at slot base, and once the ring
	// has wrapped the slots after the cursor hold the oldest records.
	chunks [][]Record
	cur    []Record
	at     int
	base   int
	passed uint64 // records written before cur: written() = passed + at
	max    int
	sink   func(Record)
	clock  func() sim.Time
	// Emit's last (category, event) and its site, so a run of one event
	// looks the registry up once.
	dynCat   Category
	dynEvent string
	dynSite  Site
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

// Overwritten returns how many records the ring has dropped to make room
// for newer ones. Safe on a nil Tracer.
func (t *Tracer) Overwritten() uint64 {
	if t == nil {
		return 0
	}
	return t.written() - uint64(t.held())
}

// written returns how many records the tracer has taken.
func (t *Tracer) written() uint64 { return t.passed + uint64(t.at) }

// held returns how many records the ring holds.
func (t *Tracer) held() int { return int(min(t.written(), uint64(t.max))) }

// Emit records an event whose detail text already exists, under a site
// registered for (cat, event) at its first use. Each distinct pair holds a
// registry slot for the life of the process, so event names must come from
// a small fixed set, as the kernel's do. Safe on a nil Tracer.
func (t *Tracer) Emit(m addr.MachineID, cat Category, event, detail string) {
	if t == nil {
		return
	}
	if t.dynSite == 0 || t.dynCat != cat || t.dynEvent != event {
		t.dynCat, t.dynEvent, t.dynSite = cat, event, dynamicSite(cat, event)
	}
	t.Log(m, t.dynSite, detail)
}

// Log records an event at site s: str is the site's ArgStr argument ("" if
// it has none), wherever its format places it, and args are the others in
// order, built by PID, Machine and Int to the site's kinds. It packs the
// argument words on the stack, zero past the site's own, and writes the
// ring slot field by field: no composite literal zeroes and copies a whole
// record, a record never carries what the slot held before, and records of
// one site compare equal wherever they were written. Safe on a nil Tracer;
// allocates nothing.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestHotPathZeroAlloc ("trace emit (deferred)") and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (t *Tracer) Log(m addr.MachineID, s Site, str string, args ...Val) {
	if t == nil || t.clock == nil {
		return
	}
	si := &sites[s]
	if len(args) != int(si.vals) {
		panic("trace: Log given the wrong number of arguments for its site")
	}
	// NewSite saw to it that the site's words fit, so the mask only spares
	// the bounds checks.
	var words [argWords]uint32
	w := 0
	for i, a := range args {
		words[w&(argWords-1)] = uint32(a)
		w++
		if si.wide>>i&1 != 0 {
			words[w&(argWords-1)] = uint32(a >> 32)
			w++
		}
	}
	r := t.slot()
	r.T, r.Machine, r.site, r.words, r.str = t.clock(), m, s, words, str
	if t.sink != nil {
		t.sink(*r)
	}
}

// slot returns the ring slot the next record goes into: a new one until the
// ring is full, then the oldest. It inlines into Log.
func (t *Tracer) slot() *Record {
	if t.at < len(t.cur) {
		t.at++
		return &t.cur[t.at-1]
	}
	return t.advance()
}

// advance moves the cursor to the chunk after cur, back to the first once
// cur ends the ring, adding the chunk if the ring has not yet grown to it,
// and returns that chunk's first slot. It stays out of line, once per
// chunk, so slot inlines.
//
//go:noinline
func (t *Tracer) advance() *Record {
	t.passed += uint64(len(t.cur))
	if t.base += len(t.cur); t.base == t.max {
		t.base = 0
	}
	k := bits.Len(uint(t.base+1)) - 1
	if k == len(t.chunks) {
		t.chunks = append(t.chunks, make([]Record, min(1<<k, t.max-t.base)))
	}
	t.cur, t.at = t.chunks[k], 1
	return &t.cur[0]
}

// parts returns the retained records as runs, oldest first. Safe on a nil
// Tracer.
func (t *Tracer) parts() [][]Record {
	if t == nil || t.cur == nil {
		return nil
	}
	k := bits.Len(uint(t.base+1)) - 1
	var runs [][]Record
	if t.written() > uint64(t.max) {
		runs = append(runs, t.cur[t.at:])
		runs = append(runs, t.chunks[k+1:]...)
	}
	runs = append(runs, t.chunks[:k]...)
	return append(runs, t.cur[:t.at])
}

// Records returns a copy of the retained records in emission order.
func (t *Tracer) Records() []Record {
	if t == nil || t.written() == 0 {
		return nil
	}
	out := make([]Record, 0, t.held())
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
			if cat == CatAll || part[i].Cat() == cat {
				out = append(out, part[i].Event())
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
