// Package sim provides the deterministic discrete-event engine that drives
// the simulated DEMOS/MP cluster.
//
// The kernels, the network, and the workloads of one shard share an Engine
// (a default cluster has one; a Group steps several together). Time is a
// simulated microsecond counter; events fire in (time, class, sequence)
// order, so two runs with the same seed produce byte-identical traces. This
// is what lets the test suite assert exact protocol costs (e.g. the paper's
// "9 administrative messages" per migration).
//
// The engine is allocation-free on the steady-state path: event state lives
// in an index-stable arena whose slots are recycled through a free list, and
// the priority queue is a hierarchical timing wheel threaded through the
// arena (see wheel below) — schedule, cancel and fire are O(1) with no key
// comparisons, whatever is pending. See DESIGN.md §7 ("Performance") and
// bench_hotpath_test.go for the zero-alloc guards.
package sim

import (
	"math/bits"
	"math/rand"
	"strconv"
)

// Time is simulated time in microseconds since boot.
type Time uint64

// String formats a Time as seconds with microsecond precision. It formats
// into a stack buffer (no fmt machinery), so trace-heavy runs pay only the
// final string allocation.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: BenchmarkTimeString in bench_hotpath_test.go.
func (t Time) String() string {
	var buf [27]byte
	b := strconv.AppendUint(buf[:0], uint64(t)/1e6, 10)
	us := uint64(t) % 1e6
	b = append(b, '.',
		byte('0'+us/100000%10), byte('0'+us/10000%10), byte('0'+us/1000%10),
		byte('0'+us/100%10), byte('0'+us/10%10), byte('0'+us%10), 's')
	return string(b)
}

// Event is a handle to a scheduled callback, returned by At/After/AfterWeak
// and accepted by Cancel. It is a value (arena index + generation), so
// scheduling allocates nothing; the zero Event is a valid "no event" and is
// safe to Cancel. A handle held after its event fired or was cancelled goes
// stale (the generation moves on) and is ignored by Cancel.
type Event struct {
	idx uint32
	gen uint32
}

// slot is the arena-resident state of one scheduled event.
type slot struct {
	fn   func()
	name string
	at   Time
	seq  uint64 // scheduling sequence number | class bits: the same-time order
	gen  uint32
	next uint32 // the entry after this one in its wheel list, or on the free list (then 1 + its index, 0 at the end)
	weak bool   // weak events do not keep Run alive
}

// The event queue is a hierarchical timing wheel (Varghese & Lauck, SOSP
// '87): wheelLevels levels of 64 lists, level l indexed by the l-th 6-bit
// digit of the timestamp. An entry due at t is filed at the level of the
// highest digit in which t differs from the reference time cur, in the list
// of t's digit there:
//
//	level = (bits.Len64(t^cur) - 1) / 6    list = t >> (6*level) & 63
//
// Every queued entry is due at or after cur. So a level's occupied lists lie
// above cur's own digit (cur's list at a level >= 1 is always empty), a
// lower level holds earlier times than a higher one, and the next entry is
// in the lowest set bit of the lowest occupied level: two TrailingZeros and
// no comparison of keys, whatever is pending.
//
// Firing order is exactly (at, class, seq), by construction. Position is a
// pure function of (at, cur), so entries due at one time always share a
// list, and a list is fired from only when it is in firing order: a level-0
// list, which is one timestamp kept sorted by seq, or a list of one entry.
// Any other list is cascaded first — moved to level 0 whole if it is one
// timestamp in seq order (not "mixed"), else filed again entry by entry
// from its earliest live time.
const wheelLevels = 11 // 6 bits a level: ceil(64 / 6)

// wheelLevel is one level of the wheel: 64 lists, each a FIFO threaded
// through slot.next, and what is known about them a bit a list.
type wheelLevel struct {
	occ   uint64     // bit j set: list j is non-empty; otherwise its head and tail mean nothing
	mixed uint64     // bit j set: list j is not (one timestamp, in firing order)
	lists *wheelList // allocated on first use (level 0's is Engine.lists0)
}

// wheelList is the head and tail of each of a level's lists; the tail's next
// is never read.
type wheelList [64]struct{ head, tail uint32 }

// Engine is a deterministic discrete-event scheduler.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    Time
	arena  []slot // index-stable event storage
	seq    uint64
	live   int // scheduled, uncancelled events (strong + weak)
	seed   int64
	rng    *rand.Rand // made at the first Rand: a math/rand source is 5 KB, and most engines never draw
	fired  uint64
	strong int    // pending non-weak events
	free   uint32 // 1 + the index of the first recycled slot (they chain through slot.next), 0 if none
	levels uint16 // the wheel's occupied levels: bit l set when lv[l].occ != 0
	halted bool

	// OnFire, when non-nil, observes every event just before it runs, once
	// per event whatever CountAs later reports for it. The determinism tests
	// use it to assert exact firing order.
	OnFire func(name string, at Time)

	// OnAdvance, when non-nil, observes simulated time moving forward: it
	// runs once per distinct timestamp, just before the first event at the
	// new time fires. The hook must not schedule events — it is a span
	// boundary for observers (obs timeline sampling), and keeping it
	// read-only is what guarantees installing one cannot perturb the
	// golden firing order.
	OnAdvance func(from, to Time)

	// The wheel. Cancelled entries stay in it until the clock reaches their
	// list or newSlot sweeps them out, so occupancy counts them too.
	cur    Time                    // reference time: no queued entry is due before it
	lv     [wheelLevels]wheelLevel // lv[0].lists is &lists0
	lists0 wheelList               // level 0: the 64 timestamps of cur's block, one a list
}

// NewEngine returns an engine at time zero with a PRNG seeded by seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{seed: seed}
	e.lv[0].lists = &e.lists0
	return e
}

// Seed returns the seed the engine was built with. Layers that must decide
// things as a pure function of (seed, identity) rather than of PRNG draw
// order — the network's hash-drawn frame loss — key their hashes with it.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's seeded PRNG, made at the first call. All
// simulation randomness must come from here to preserve determinism.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// Fired returns the number of events executed so far. An event that did the
// work of several (see CountAs) counts as that many: a frame landed by a
// shared gate counts as one, as if it had had its own.
func (e *Engine) Fired() uint64 { return e.fired }

// CountAs tells the engine that the event now running did the work of k
// events, so Fired counts it k times rather than once (k = 0 still counts it
// once). The network's pump, which lands every frame due at its instant from
// one gate, reports the frames it landed, so Fired does not depend on how
// many gates the frames shared.
func (e *Engine) CountAs(k uint64) {
	if k > 1 {
		e.fired += k - 1
	}
}

// Pending returns the number of scheduled, uncancelled events. O(1): a live
// counter maintained by schedule/Cancel/Step, not a queue scan.
func (e *Engine) Pending() int { return e.live }

// StrongPending returns the number of pending non-weak events. The sharded
// group runner's termination vote stops the cluster when every engine's
// strong count reaches zero after a mailbox drain (weak housekeeping never
// keeps a shard group alive, mirroring Run's own stop rule).
func (e *Engine) StrongPending() int { return e.strong }

// NextAt reports the timestamp of the next runnable event, recycling any
// cancelled entries queued ahead of it. ok is false when no events remain.
func (e *Engine) NextAt() (at Time, ok bool) {
	idx, _, _, ok := e.peek()
	if !ok {
		return 0, false
	}
	return e.arena[idx].at, true
}

// Event classes: at equal timestamps, fault events sort before gate events,
// which sort before normal events; within each class, scheduling order is
// preserved. The class bits are OR-ed into the heap key only — e.seq itself
// stays a dense counter, and a run that schedules nothing but normal events
// orders exactly as it did before the bits existed.
//
//   - fault (AfterWeakFault): fault-plane mutations (partitions,
//     loss bursts, injected duplicates/delays). Running them first gives the
//     sharded runtime one invariant rule — "fault state armed at time t
//     applies to every send and every arrival at time t" — that holds for
//     any shard count, because the ordering is fixed by class rather than by
//     per-engine scheduling order.
//   - gate (AtGate): canonical frame-delivery pumps. A message arriving "at
//     time t" is visible before any of the receiver's own work at t runs,
//     matching what a single shared engine would have done.
//   - normal (At/After/AfterWeak): everything else.
const (
	gateSeqBit   = 1 << 62
	normalSeqBit = 1 << 63
)

// classNormal/classGate/classFault select an event's same-timestamp
// priority tier in schedule.
const (
	classNormal = iota
	classGate
	classFault
)

// At schedules fn at absolute time t. Scheduling in the past fires at the
// current time (events never run retroactively).
func (e *Engine) At(t Time, name string, fn func()) Event {
	return e.schedule(t, name, fn, false, classNormal)
}

// AtGate schedules fn at absolute time t, ordered before every normal event
// sharing that timestamp (gates among themselves keep scheduling order).
// The sharded runtime uses gates to pump cross-engine frame deliveries so a
// message arriving "at time t" is visible before any of the receiver's own
// work at t runs — matching what a single shared engine would have done.
func (e *Engine) AtGate(t Time, name string, fn func()) Event {
	return e.schedule(t, name, fn, false, classGate)
}

// after returns the time d microseconds from now, saturating at the maximum
// Time instead of wrapping into the past.
func (e *Engine) after(d Time) Time {
	if t := e.now + d; t >= e.now {
		return t
	}
	return ^Time(0)
}

// After schedules fn d microseconds from now. A d that would overflow Time
// saturates at the maximum Time: After(^Time(0)) means "never", not "now".
func (e *Engine) After(d Time, name string, fn func()) Event {
	return e.schedule(e.after(d), name, fn, false, classNormal)
}

// AfterWeak schedules a weak event: it fires like any other while the
// simulation is alive, but does not by itself keep Run going. Periodic
// housekeeping (load reports) uses weak events so "run until idle" still
// terminates. d saturates as in After.
func (e *Engine) AfterWeak(d Time, name string, fn func()) Event {
	return e.schedule(e.after(d), name, fn, true, classNormal)
}

// AfterWeakFault schedules a weak fault-class event d microseconds from
// now: it runs before gates and normal events at its timestamp but never
// keeps Run alive — the shape of a chaos pulse. d saturates as in After.
func (e *Engine) AfterWeakFault(d Time, name string, fn func()) Event {
	return e.schedule(e.after(d), name, fn, true, classFault)
}

//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/engine-schedule in bench_hotpath_test.go.
func (e *Engine) schedule(t Time, name string, fn func(), weak bool, class int) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	if t < e.now {
		t = e.now
	}
	var idx uint32
	if e.free != 0 {
		idx = e.free - 1
		e.free = e.arena[idx].next
	} else {
		idx = e.newSlot()
	}
	key := e.seq | normalSeqBit
	switch class {
	case classGate:
		key = e.seq | gateSeqBit
	case classFault:
		key = e.seq
	}
	s := &e.arena[idx]
	s.fn, s.name, s.at, s.seq, s.weak = fn, name, t, key, weak
	if e.levels == 0 {
		// An empty wheel, as a queue one or two events deep mostly is: any
		// reference will do, and t's own puts the entry at level 0.
		e.cur = t
		e.levels, e.lv[0].occ = 1, 1<<(t&63)
		w := &e.lists0[t&63]
		w.head, w.tail = idx, idx
	} else {
		if t < e.cur {
			e.rewind(t)
		}
		if x := t ^ e.cur; x < 64 { // e.place, by hand: one call fewer for every event
			e.place0(idx, uint(t)&63, key)
		} else {
			e.placeUp(idx, t, key, wheelLevelOf(x))
		}
	}
	e.seq++
	e.live++
	if !weak {
		e.strong++
	}
	return Event{idx: idx, gen: s.gen}
}

// Cancel prevents a scheduled event from firing. Safe to call twice, on the
// zero Event, or on a handle whose event already fired.
func (e *Engine) Cancel(ev Event) {
	if int(ev.idx) >= len(e.arena) {
		return
	}
	s := &e.arena[ev.idx]
	if s.gen != ev.gen || s.fn == nil {
		return
	}
	s.fn = nil // the entry stays queued; freed when the clock reaches its list, or by newSlot
	e.live--
	if !s.weak {
		e.strong--
	}
}

// newSlot returns an arena slot for schedule when the free list is empty, which
// means every slot is queued: live, or cancelled and waiting for the clock to
// reach its list. So len(arena) - live counts the cancelled ones, and when
// they are most of an arena worth the walk, newSlot takes them all back instead
// of extending it: under arm-and-cancel churn (a 30 s watchdog a migration)
// the arena stays within twice the live count, at an amortised O(1) a cancel
// since each sweep frees more than half of it. Out of line to keep
// schedule's own frame and code as they were (EXPERIMENTS.md "PR 24").
//
//go:noinline
func (e *Engine) newSlot() uint32 {
	if len(e.arena) < 64 || len(e.arena) <= 2*e.live {
		e.arena = append(e.arena, slot{gen: 1})
		return uint32(len(e.arena) - 1)
	}
	for l := range e.lv {
		lv := &e.lv[l]
		for b := lv.occ; b != 0; b &= b - 1 {
			e.sweep(uint(l), uint(bits.TrailingZeros64(b)))
		}
	}
	idx := e.free - 1
	e.free = e.arena[idx].next
	return idx
}

// sweep unlinks and frees the cancelled entries of list j of level l. The
// live ones keep their order, so a list in firing order stays in it (and a
// mixed mark it no longer needs is conservative).
func (e *Engine) sweep(l, j uint) {
	w := &e.lv[l].lists[j]
	link, tail := &w.head, w.tail // link: where the next live entry's index goes
	for i, last := w.head, false; !last; {
		s := &e.arena[i]
		next := s.next
		last = i == tail
		if s.fn == nil {
			e.freeSlot(i)
		} else {
			*link, w.tail = i, i
			link = &s.next
		}
		i = next
	}
	if link == &w.head {
		e.clear(l, j)
	}
}

// freeSlot recycles an arena slot taken off the wheel. Bumping the
// generation invalidates any handles still pointing at it.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc and BenchmarkEngineDispatchDepth64.
func (e *Engine) freeSlot(idx uint32) {
	s := &e.arena[idx]
	s.fn = nil
	s.name = ""
	s.gen++
	s.next = e.free
	e.free = idx + 1
}

// place files arena entry idx, due at t >= e.cur with same-time order key,
// in the list its time selects.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc and BenchmarkEngineDispatchDepth64.
func (e *Engine) place(idx uint32, t Time, key uint64) {
	if x := t ^ e.cur; x < 64 {
		e.place0(idx, uint(t)&63, key)
	} else {
		e.placeUp(idx, t, key, wheelLevelOf(x))
	}
}

// place0 inserts idx into level-0 list j where key belongs. The list is one
// timestamp and stays sorted; keys grow with scheduling order inside a
// class, so idx goes to the tail unless a gate or fault event arrives behind
// a later-class one of the same instant.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc and BenchmarkEngineDispatchDepth64.
func (e *Engine) place0(idx uint32, j uint, key uint64) {
	w := &e.lists0[j]
	if e.lv[0].occ&(1<<j) == 0 {
		e.lv[0].occ |= 1 << j
		e.levels |= 1
		w.head, w.tail = idx, idx
		return
	}
	if tail := &e.arena[w.tail]; tail.seq < key {
		tail.next = idx
		w.tail = idx
		return
	}
	link := &w.head // before the first entry ordered after idx: the tail is one
	for e.arena[*link].seq < key {
		link = &e.arena[*link].next
	}
	e.arena[idx].next, *link = *link, idx
}

// placeUp appends idx to the list of level l >= 1 that t selects, and notes
// when that leaves the list mixed: holding two timestamps, or out of firing
// order.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc and BenchmarkEngineDispatchDepth64.
func (e *Engine) placeUp(idx uint32, t Time, key uint64, l uint) {
	lv := &e.lv[l]
	if lv.lists == nil {
		lv.lists = new(wheelList) // once per level per engine: ten times at most
	}
	j := uint(t>>(6*l)) & 63
	w := &lv.lists[j]
	if lv.occ&(1<<j) == 0 {
		lv.occ |= 1 << j
		e.levels |= 1 << l
		w.head, w.tail = idx, idx
		return
	}
	tail := &e.arena[w.tail]
	if key < tail.seq || tail.at != t {
		lv.mixed |= 1 << j
	}
	tail.next = idx
	w.tail = idx
}

// wheelLevelOf returns the level of the highest digit set in x, the
// difference between a time and cur: (bits.Len64(x) - 1) / 6, and 0 for 0.
func wheelLevelOf(x Time) uint { return uint(bits.Len64(uint64(x)|1)-1) / 6 }

// clear marks list j of level l empty.
func (e *Engine) clear(l, j uint) {
	lv := &e.lv[l]
	lv.mixed &^= 1 << j
	if lv.occ &^= 1 << j; lv.occ == 0 {
		e.levels &^= 1 << l
	}
}

// cascade empties list j of level l >= 1, the earliest occupied list of the
// wheel, into the levels below. A list that is not mixed is the level-0 list
// of its one timestamp already and is moved there whole, however long it is:
// what the same-instant events of machines running in step cost. Otherwise
// cascade frees the cancelled entries and files the live ones again from a
// new cur: the start of the list's 64 µs for a level-1 list, whose entries
// all belong at level 0 then, and else the list's earliest live time, which
// puts that entry at level 0 in one step however high the list was (a list
// of cancelled entries only leaves cur alone).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc and BenchmarkEngineDispatchDepth64.
func (e *Engine) cascade(l, j uint) {
	w := e.lv[l].lists[j]
	mixed := e.lv[l].mixed&(1<<j) != 0
	e.clear(l, j)
	at := e.arena[w.head].at
	if !mixed {
		e.cur = at
		e.lists0[at&63] = w
		e.lv[0].occ = 1 << (at & 63) // level 0 was empty, or the search would not have come up here
		e.levels |= 1
		return
	}
	if l == 1 {
		e.cur = at &^ 63
	} else {
		min, live := ^Time(0), false
		for i := w.head; ; i = e.arena[i].next {
			if s := &e.arena[i]; s.fn != nil && s.at <= min {
				min, live = s.at, true
			}
			if i == w.tail {
				break
			}
		}
		if live {
			e.cur = min
		}
	}
	for i, last := w.head, false; !last; {
		s := &e.arena[i]
		next := s.next
		last = i == w.tail
		switch {
		case s.fn == nil:
			e.freeSlot(i)
		case l == 1:
			e.place0(i, uint(s.at)&63, s.seq)
		default:
			e.place(i, s.at, s.seq)
		}
		i = next
	}
}

// rewind moves cur back to t < cur, for an event scheduled earlier than a
// time NextAt already moved the reference to. With L the highest digit in
// which t and cur differ, every entry below level L agrees with cur from
// digit L up and so belongs, seen from t, in cur's own list at level L:
// their lists are concatenated there. Entries at level L and above differ
// from cur and from t in the same digit and stay where they are.
func (e *Engine) rewind(t Time) {
	if L := wheelLevelOf(t ^ e.cur); e.levels&(1<<L-1) != 0 {
		up := &e.lv[L]
		if up.lists == nil {
			up.lists = new(wheelList)
		}
		d := uint(e.cur>>(6*L)) & 63
		dst := &up.lists[d]
		for l, first := uint(0), true; l < L; l++ {
			lv := &e.lv[l]
			for b := lv.occ; b != 0; b &= b - 1 {
				src := lv.lists[bits.TrailingZeros64(b)]
				if first {
					dst.head, first = src.head, false
				} else {
					e.arena[dst.tail].next = src.head
				}
				dst.tail = src.tail
			}
			lv.occ, lv.mixed = 0, 0
		}
		up.occ |= 1 << d
		up.mixed |= 1 << d
		e.levels = e.levels&^(1<<L-1) | 1<<L
	}
	e.cur = t
}

// peek finds the next runnable event: it returns its arena index and the
// list it heads, freeing the cancelled entries ahead of it. The earliest
// occupied list holds it — looked for at level 0 first, where a busy queue's
// next event is — and is in firing order if it is a level-0 list or holds
// one entry; any other is cascaded first.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc and BenchmarkEngineDispatchDepth64.
func (e *Engine) peek() (idx uint32, l, j uint, ok bool) {
	for {
		l = 0
		occ, lists := e.lv[0].occ, &e.lists0
		if occ == 0 {
			if e.levels == 0 {
				return 0, 0, 0, false
			}
			l = uint(bits.TrailingZeros16(e.levels))
			occ, lists = e.lv[l].occ, e.lv[l].lists
		}
		j = uint(bits.TrailingZeros64(occ))
		w := &lists[j&63]
		if l > 0 && w.head != w.tail {
			e.cascade(l, j)
			continue
		}
		idx = w.head
		if e.arena[idx].fn != nil {
			return idx, l, j, true
		}
		e.pop(idx, l, j)
		e.freeSlot(idx)
	}
}

// pop unlinks idx, the head of list j of level l, which peek just returned.
// When that empties the list, idx's time becomes the reference: it is the
// earliest entry's, so no queued entry is due before it, and it keeps what
// is scheduled next in the lowest levels. (While the list still holds
// entries of that time, cur must stay behind them: seen from their own time
// they would belong at level 0.)
func (e *Engine) pop(idx uint32, l, j uint) {
	if w := &e.lv[l].lists[j]; w.tail == idx {
		e.clear(l, j)
		e.cur = e.arena[idx].at
	} else {
		w.head = e.arena[idx].next
	}
}

// Step fires the single next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	fn := e.take(^Time(0))
	if fn == nil {
		return false
	}
	fn()
	return true
}

// take removes the next event from the queue if it is due by deadline,
// accounts for its firing and returns its function for the caller to run —
// from the caller's own frame, so a callback runs no deeper in the stack
// than the loop that drives the engine. It returns nil when nothing is due.
//
//demos:hotpath — the dispatch half of the engine cycle; checked by demoslint (hotpathalloc) and TestHotPathZeroAlloc in bench_hotpath_test.go.
func (e *Engine) take(deadline Time) func() {
	idx, l, j, ok := e.peek()
	if !ok {
		return nil
	}
	s := &e.arena[idx]
	if s.at > deadline {
		return nil
	}
	e.pop(idx, l, j)
	if s.at > e.now && e.OnAdvance != nil {
		e.OnAdvance(e.now, s.at)
	}
	e.now = s.at
	fn, name, at := s.fn, s.name, s.at
	if !s.weak {
		e.strong--
	}
	e.live--
	e.freeSlot(idx) // recycle before fn runs: it may schedule into this slot
	e.fired++
	if e.OnFire != nil {
		e.OnFire(name, at)
	}
	return fn
}

// Run fires events until only weak events (periodic housekeeping) remain.
// It returns the number of events fired by this call.
func (e *Engine) Run() uint64 {
	start := e.fired
	e.halted = false
	for !e.halted && e.strong > 0 && e.Step() {
	}
	return e.fired - start
}

// runTo fires events with timestamps <= deadline and leaves the clock at the
// last one fired.
func (e *Engine) runTo(deadline Time) {
	e.halted = false
	for !e.halted {
		fn := e.take(deadline)
		if fn == nil {
			break
		}
		fn()
	}
}

// RunUntil fires events with timestamps <= deadline and then sets the clock
// to the deadline (every pending event is later than it), so whatever the
// caller does next happens at the time it asked to reach. A Halt leaves the
// clock at the event that called it.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.fired
	e.runTo(deadline)
	if !e.halted && e.now < deadline {
		e.now = deadline
	}
	return e.fired - start
}

// RunFor advances the simulation by d microseconds of simulated time.
func (e *Engine) RunFor(d Time) uint64 { return e.RunUntil(e.after(d)) }
