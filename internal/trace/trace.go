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
	"slices"
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
	ArgInt     ArgKind = iota + 1 // an int32-range int, one argument word; build with Int
	ArgPID                        // an addr.ProcessID, one word; build with PID
	ArgMachine                    // an addr.MachineID, one word; build with Machine
	ArgStr                        // the record's one string, passed beside the words; its table reference takes one word
	ArgName                       // an enum value, one word; build with Name, named by its site's namer when read
)

// A site's arguments fit a record: at most one ArgStr and argWords words in
// all, each argument one word, the ArgStr's table reference included.
const (
	argWords = 5
	maxSites = 512
)

type siteInfo struct {
	event, format string
	cat           Category
	dynamic       bool  // registered by Emit: format "%s", one ArgStr
	str           bool  // takes an ArgStr, whose reference is word vals
	nkinds        uint8 // the arguments, kinds[:nkinds]
	vals          uint8 // ... of which Vals: all but the ArgStr
	kinds         [argWords]ArgKind
}

// The registry is a fixed array, not a heap object: the kernel's sites fill
// it at package init, in declaration order, so a site's id is the same in
// every shard and every run. Emit adds its (category, event) pairs at first
// use, under siteMu; a slot once written never changes, so readers go
// without the lock. A named site's namer sits beside its slot, since a func
// does not compare.
var (
	siteMu sync.Mutex
	sites  [maxSites]siteInfo
	namers [maxSites]namer
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
	return register(siteInfo{event: event, format: format, cat: cat}, kinds, nil)
}

// NewNamedSite registers a trace point as NewSite does, whose ArgName
// arguments are values of the enum E: a record keeps each as one word, and
// name turns it into its text only when the record is read. Pass the enum's
// String method (ProcState.String), so a record renders what the value's
// String renders and a write makes no string. A named site always takes a
// slot of its own (its namer does not compare), so declare it once, at
// package level. It panics if kinds has no ArgName.
func NewNamedSite[E enum](cat Category, event, format string, name func(E) string, kinds ...ArgKind) Site {
	siteMu.Lock()
	defer siteMu.Unlock()
	return register(siteInfo{event: event, format: format, cat: cat}, kinds, enumNamer[E](name))
}

// enum is the type of an ArgName: an integer type that fits a word.
type enum interface{ ~uint8 | ~uint16 | ~uint32 }

// A namer renders a named site's ArgName words.
type namer interface{ name(Val) string }

// enumNamer names a value of E. Being one func pointer, it goes into a
// namer without an allocation, as a closure over name would not.
type enumNamer[E enum] func(E) string

func (f enumNamer[E]) name(v Val) string { return f(E(v)) }

// register returns the registered site equal to si with kinds, filling the
// next registry slot if there is none; a site with a namer always fills
// one. siteMu must be held.
func register(si siteInfo, kinds []ArgKind, nm namer) Site {
	if len(kinds) > argWords {
		panic("trace: " + si.event + ": arguments do not fit a record (one Str, five words)")
	}
	si.nkinds = uint8(len(kinds))
	for i, k := range kinds {
		si.kinds[i] = k
		switch k {
		case ArgStr:
			if si.str {
				panic("trace: " + si.event + ": arguments do not fit a record (one Str, five words)")
			}
			si.str = true
		case ArgName:
			if nm == nil {
				panic("trace: " + si.event + ": an ArgName needs a namer: declare the site with NewNamedSite")
			}
			si.vals++
		case ArgInt, ArgPID, ArgMachine:
			si.vals++
		default:
			panic("trace: " + si.event + ": unknown argument kind")
		}
	}
	if nm != nil && !slices.Contains(kinds, ArgName) {
		panic("trace: " + si.event + ": a named site takes an ArgName")
	}
	for s := 1; s < nSites && nm == nil; s++ {
		if sites[s] == si {
			return Site(s)
		}
	}
	if nSites == maxSites {
		panic("trace: site registry full")
	}
	sites[nSites], namers[nSites] = si, nm
	nSites++
	return Site(nSites - 1)
}

// dynamicSite returns the site Emit records (cat, event) under, registering
// it at first use.
func dynamicSite(cat Category, event string) Site {
	siteMu.Lock()
	defer siteMu.Unlock()
	return register(siteInfo{event: event, format: "%s", cat: cat, dynamic: true}, []ArgKind{ArgStr}, nil)
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

// Val is one word-sized argument of a site, built by PID, Machine, Int or
// Name; the site supplies its kind.
type Val uint32

// PID passes an addr.ProcessID.
func PID(p addr.ProcessID) Val { return Val(uint32(p.Creator)<<16 | uint32(p.Local)) }

// Machine passes an addr.MachineID.
func Machine(m addr.MachineID) Val { return Val(m) }

// Int passes an int, which must fit an int32: every int a kernel site
// passes is a size, a count, an exit code or a sequence number. It panics
// on one that does not fit rather than record a wrong value.
func Int(n int) Val {
	if n != int(int32(n)) {
		panic("trace: Int argument outside the int32 range")
	}
	return Val(uint32(n))
}

// Name passes an enum value to a named site's ArgName; the site's namer
// renders it when the record is read.
func Name[E enum](e E) Val { return Val(e) }

// Record is one traced event as its readers see it. Its detail text is
// rendered when something reads it (Detail, String), not when it is
// emitted: the record holds its site's id and the site's arguments, and the
// site holds the category, event name and format. The ring keeps a record
// as a slot; Records, the sink and the queries hand out Records.
type Record struct {
	T       sim.Time
	Machine addr.MachineID
	site    Site
	words   [argWords]Val // the Val arguments in order, one word each
	str     string        // the site's one ArgStr argument, if any
}

// Event returns the record's event name.
func (r Record) Event() string { return r.site.Event() }

// Cat returns the record's category.
func (r Record) Cat() Category { return r.site.Cat() }

// Detail renders the record's detail text.
func (r Record) Detail() string {
	var args [argWords]any
	kinds, w := r.site.Kinds(), 0
	for n, k := range kinds {
		switch k {
		case ArgPID:
			args[n] = addr.ProcessID{Creator: addr.MachineID(r.words[w] >> 16), Local: addr.LocalUID(r.words[w])}
		case ArgMachine:
			args[n] = addr.MachineID(r.words[w])
		case ArgInt:
			args[n] = int(int32(r.words[w]))
		case ArgName:
			args[n] = namers[r.site].name(r.words[w])
		case ArgStr:
			args[n] = r.str
			continue
		}
		w++
	}
	return fmt.Sprintf(r.site.Format(), args[:len(kinds)]...)
}

func (r Record) String() string {
	return fmt.Sprintf("%-12v %-4v %-10s %-32s %s", r.T, r.Machine, r.Cat(), r.Event(), r.Detail())
}

// slot is a record as the ring keeps it: 32 bytes, half a cache line, with
// no pointer in it, so the collector never scans the ring. A site's ArgStr
// is its word vals, a reference into the tracer's string table.
type slot struct {
	T       sim.Time
	Machine addr.MachineID
	site    Site
	words   [argWords]Val
}

// strTable holds the strings the ring's slots name, so that the slots need
// no pointer. Reference 0 names no string (""), and each live string has
// one entry, found through index. An entry lives until the newest record
// naming it is overwritten: the live entries form a list in the order of
// their newest records, so the entry a write kills, if any, is the list's
// first, and no write reads the slot it overwrites. The table never holds
// more strings than the ring holds records. A run of one string (a kind
// name on every spawn) finds it at the list's end without hashing it. The
// table and its index are made at the first string.
type strTable struct {
	e     []strEntry // e[0] heads the list: next is the oldest entry, prev the newest
	free  Val        // the first free entry, 0 if none
	index map[string]Val
}

type strEntry struct {
	s          string
	seq        uint64 // the newest record naming s, as a count of records written before it
	prev, next Val    // the list; a free entry's next is the next free entry
}

// ref returns a reference to str for record seq, the newest yet.
func (st *strTable) ref(str string, seq uint64) Val {
	if len(st.e) != 0 {
		// A run of one string; also "" while no entry is live.
		if i := st.e[0].prev; st.e[i].s == str {
			st.e[i].seq = seq
			return i
		}
	}
	if str == "" {
		return 0
	}
	if st.e == nil {
		st.e, st.index = make([]strEntry, 1), make(map[string]Val)
	}
	i := st.index[str]
	if i == 0 {
		i = st.alloc()
		st.e[i].s, st.index[str] = str, i
	} else {
		st.unlink(i)
	}
	e := &st.e[i]
	e.seq, e.prev, e.next = seq, st.e[0].prev, 0
	st.e[e.prev].next, st.e[0].prev = i, i
	return i
}

// alloc returns a free entry, growing the table when there is none.
func (st *strTable) alloc() Val {
	if i := st.free; i != 0 {
		st.free = st.e[i].next
		return i
	}
	st.e = append(st.e, strEntry{})
	return Val(len(st.e) - 1)
}

func (st *strTable) unlink(i Val) {
	e := &st.e[i]
	st.e[e.prev].next, st.e[e.next].prev = e.next, e.prev
}

// expire frees the oldest entry if no record from oldest on names it. A
// write moves oldest up by one record, which is the newest of at most one
// entry, so one check a write keeps the table to the retained records.
func (st *strTable) expire(oldest uint64) {
	if len(st.e) == 0 {
		return
	}
	if i := st.e[0].next; i != 0 && st.e[i].seq < oldest {
		st.unlink(i)
		delete(st.index, st.e[i].s)
		st.e[i], st.free = strEntry{next: st.free}, i
	}
}

// str returns the string reference i names.
func (st *strTable) str(i Val) string {
	if i == 0 {
		return ""
	}
	return st.e[i].s
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
	chunks [][]slot
	cur    []slot
	at     int
	base   int
	passed uint64 // records written before cur: written() = passed + at
	max    int
	strs   strTable // the strings the retained slots name
	sink   func(Record)
	clock  func() sim.Time
	// Emit's last (category, event) and its site, so a run of one event
	// looks the registry up once.
	dynCat   Category
	dynEvent string
	dynSite  Site
}

// New returns an enabled tracer keeping at most max records (0 = 64k). The
// ring and its string table are grown as records arrive, never
// preallocated.
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
// order, built by PID, Machine, Int and Name to the site's kinds. It
// writes the ring slot field by field, zero past the site's own words: no
// composite literal zeroes and copies a whole slot, a record never carries
// what the slot held before, and records of one site compare equal
// wherever they were written. The string goes in as a reference into the
// string table, after the table has dropped the string only the
// overwritten record named, if any; a site with no ArgStr, a named one
// included, touches no table entry. Safe on a nil Tracer; allocates
// nothing once its string is in the table.
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
	r := t.slot()
	r.T = t.clock()
	r.Machine, r.site = m, s
	for i := range r.words {
		var v Val
		if i < len(args) {
			v = args[i]
		}
		r.words[i] = v
	}
	n := t.written()
	t.strs.expire(n - uint64(t.held()))
	if si.str {
		r.words[si.vals] = t.strs.ref(str, n-1)
	}
	if t.sink != nil {
		t.sink(t.record(r))
	}
}

// slot returns the ring slot the next record goes into: a new one until the
// ring is full, then the oldest. It inlines into Log.
func (t *Tracer) slot() *slot {
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
func (t *Tracer) advance() *slot {
	t.passed += uint64(len(t.cur))
	if t.base += len(t.cur); t.base == t.max {
		t.base = 0
	}
	k := bits.Len(uint(t.base+1)) - 1
	if k == len(t.chunks) {
		t.chunks = append(t.chunks, make([]slot, min(1<<k, t.max-t.base)))
	}
	t.cur, t.at = t.chunks[k], 1
	return &t.cur[0]
}

// record returns the Record slot r holds, its string read from the table.
func (t *Tracer) record(r *slot) Record {
	rec := Record{T: r.T, Machine: r.Machine, site: r.site, words: r.words}
	if si := &sites[r.site]; si.str {
		rec.str, rec.words[si.vals] = t.strs.str(r.words[si.vals]), 0
	}
	return rec
}

// parts returns the retained slots as runs, oldest first. Safe on a nil
// Tracer.
func (t *Tracer) parts() [][]slot {
	if t == nil || t.cur == nil {
		return nil
	}
	k := bits.Len(uint(t.base+1)) - 1
	var runs [][]slot
	if t.written() > uint64(t.max) {
		runs = append(runs, t.cur[t.at:])
		runs = append(runs, t.chunks[k+1:]...)
	}
	runs = append(runs, t.chunks[:k]...)
	return append(runs, t.cur[:t.at])
}

// Records returns the retained records in emission order.
func (t *Tracer) Records() []Record {
	if t == nil || t.written() == 0 {
		return nil
	}
	out := make([]Record, 0, t.held())
	for _, part := range t.parts() {
		for i := range part {
			out = append(out, t.record(&part[i]))
		}
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
			if s := part[i].site; cat == CatAll || s.Cat() == cat {
				out = append(out, s.Event())
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
			b.WriteString(t.record(&part[i]).String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
