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
// the priority queue is a hand-rolled 4-ary min-heap of (time, seq) keys —
// no container/heap interface boxing, no per-schedule *Event allocation.
// See DESIGN.md §7 ("Performance") and bench_hotpath_test.go for the
// zero-alloc guards.
package sim

import (
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
	seq  uint64
	gen  uint32
	weak bool // weak events do not keep Run alive
}

// heapEnt is one 4-ary heap entry. The (at, seq) key is kept inline so
// sift operations stay in one cache line instead of chasing arena indices.
type heapEnt struct {
	at  Time
	seq uint64
	idx uint32
}

// Engine is a deterministic discrete-event scheduler.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    Time
	arena  []slot    // index-stable event storage
	free   []uint32  // recycled arena slots
	heap   []heapEnt // 4-ary min-heap ordered by (at, seq)
	seq    uint64
	live   int // scheduled, uncancelled events (strong + weak)
	seed   int64
	rng    *rand.Rand
	fired  uint64
	halted bool
	strong int // pending non-weak events

	// OnFire, when non-nil, observes every event just before it runs.
	// The determinism tests use it to assert exact firing order.
	OnFire func(name string, at Time)

	// OnAdvance, when non-nil, observes simulated time moving forward: it
	// runs once per distinct timestamp, just before the first event at the
	// new time fires. The hook must not schedule events — it is a span
	// boundary for observers (obs timeline sampling), and keeping it
	// read-only is what guarantees installing one cannot perturb the
	// golden firing order.
	OnAdvance func(from, to Time)
}

// NewEngine returns an engine at time zero with a PRNG seeded by seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed the engine was built with. Layers that must decide
// things as a pure function of (seed, identity) rather than of PRNG draw
// order — the network's hash-drawn frame loss — key their hashes with it.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's seeded PRNG. All simulation randomness must come
// from here to preserve determinism.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, uncancelled events. O(1): a live
// counter maintained by schedule/Cancel/Step, not a queue scan.
func (e *Engine) Pending() int { return e.live }

// StrongPending returns the number of pending non-weak events. The sharded
// group runner's termination vote stops the cluster when every engine's
// strong count reaches zero after a mailbox drain (weak housekeeping never
// keeps a shard group alive, mirroring Run's own stop rule).
func (e *Engine) StrongPending() int { return e.strong }

// NextAt reports the timestamp of the next runnable event, recycling any
// cancelled entries it finds at the head of the queue. ok is false when no
// events remain.
func (e *Engine) NextAt() (at Time, ok bool) {
	for len(e.heap) > 0 {
		if idx := e.heap[0].idx; e.arena[idx].fn == nil {
			e.freeSlot(e.heapPop())
			continue
		}
		return e.heap[0].at, true
	}
	return 0, false
}

// Event classes: at equal timestamps, fault events sort before gate events,
// which sort before normal events; within each class, scheduling order is
// preserved. The class bits are OR-ed into the heap key only — e.seq itself
// stays a dense counter, and a run that schedules nothing but normal events
// orders exactly as it did before the bits existed.
//
//   - fault (AtFault/AfterWeakFault): fault-plane mutations (partitions,
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

// AtFault schedules fn at absolute time t, ordered before every gate and
// every normal event sharing that timestamp. The chaos plane uses fault
// events for its shard-replicated fault pulses, so fault-state mutations at
// time t are visible to all of t's sends and deliveries on every shard.
func (e *Engine) AtFault(t Time, name string, fn func()) Event {
	return e.schedule(t, name, fn, false, classFault)
}

// After schedules fn d microseconds from now.
func (e *Engine) After(d Time, name string, fn func()) Event {
	return e.At(e.now+d, name, fn)
}

// AfterWeak schedules a weak event: it fires like any other while the
// simulation is alive, but does not by itself keep Run going. Periodic
// housekeeping (load reports) uses weak events so "run until idle" still
// terminates.
func (e *Engine) AfterWeak(d Time, name string, fn func()) Event {
	return e.schedule(e.now+d, name, fn, true, classNormal)
}

// AfterWeakFault schedules a weak fault-class event d microseconds from
// now: it runs before gates and normal events at its timestamp but never
// keeps Run alive — the shape of a chaos pulse.
func (e *Engine) AfterWeakFault(d Time, name string, fn func()) Event {
	return e.schedule(e.now+d, name, fn, true, classFault)
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
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, slot{gen: 1})
		idx = uint32(len(e.arena) - 1)
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
	e.heapPush(heapEnt{at: t, seq: key, idx: idx})
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
	s.fn = nil // slot stays in the heap; skipped and recycled when popped
	e.live--
	if !s.weak {
		e.strong--
	}
}

// freeSlot recycles an arena slot popped off the heap. Bumping the
// generation invalidates any handles still pointing at it.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc and BenchmarkEngineDispatchDepth64.
func (e *Engine) freeSlot(idx uint32) {
	s := &e.arena[idx]
	s.fn = nil
	s.name = ""
	s.gen++
	e.free = append(e.free, idx)
}

// heapPush inserts ent, sifting up through 4-ary parents.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc and BenchmarkEngineDispatchDepth64.
func (e *Engine) heapPush(ent heapEnt) {
	e.heap = append(e.heap, ent)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at < ent.at || (h[p].at == ent.at && h[p].seq < ent.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

// heapPop removes and returns the minimum (time, seq) entry's arena index.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc and BenchmarkEngineDispatchDepth64.
func (e *Engine) heapPop() uint32 {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	h = e.heap
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].at < h[m].at || (h[j].at == h[m].at && h[j].seq < h[m].seq) {
				m = j
			}
		}
		if last.at < h[m].at || (last.at == h[m].at && last.seq < h[m].seq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	return root.idx
}

// Step fires the single next event. It reports false when the queue is empty.
//
//demos:hotpath — the dispatch half of the engine cycle; checked by demoslint (hotpathalloc) and TestHotPathZeroAlloc in bench_hotpath_test.go.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		idx := e.heapPop()
		s := &e.arena[idx]
		if s.fn == nil { // cancelled while queued
			e.freeSlot(idx)
			continue
		}
		if s.at > e.now && e.OnAdvance != nil {
			e.OnAdvance(e.now, s.at)
		}
		e.now = s.at
		fn, name, at := s.fn, s.name, s.at
		if !s.weak {
			e.strong--
		}
		e.live--
		e.freeSlot(idx) // recycle before fn: fn may schedule into this slot
		e.fired++
		if e.OnFire != nil {
			e.OnFire(name, at)
		}
		fn()
		return true
	}
	return false
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
		at, runnable := e.NextAt()
		if !runnable || at > deadline {
			break
		}
		e.Step()
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
func (e *Engine) RunFor(d Time) uint64 { return e.RunUntil(e.now + d) }

// Halt stops Run/RunUntil after the current event returns.
func (e *Engine) Halt() { e.halted = true }
