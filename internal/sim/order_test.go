package sim

import (
	"fmt"
	"math/bits"
	"testing"
)

// The differential test of the event queue: a byte string drives the same
// interleaving of schedules, cancels, looks and runs on an Engine and on
// refQueue, a reference that keeps (at, class, seq) in a slice and finds its
// minimum by scanning. The two must fire the same events in the same order
// and agree on every observable after every operation. The golden trace and
// the shard-invariance matrix pin the same property end to end; this is the
// test that says which operation broke it.

// refEvent is one scheduled event of the reference.
type refEvent struct {
	at       Time
	key      uint64
	weak     bool
	dead     bool // cancelled, still holding its arena slot
	act, arg byte
}

// refQueue is the reference model. A cancelled event stays in queued, as it
// stays in the engine's arena, for as long as the engine may keep it: freed
// no later than its due time, or when the arena would next grow with more
// dead than live. So the model frees exactly the tombstones ordered before
// the next runnable event at every look, and all of them at the schedules
// where the harness saw the engine's arena full, at least 64 slots and more
// than twice its live events (swept): the engine may free a tombstone sooner
// than a look requires, so only its own arena says when that is.
type refQueue struct {
	now    Time
	seq    uint64
	fired  uint64
	halted bool
	all    []refEvent   // by id, in scheduling order
	queued []int        // ids scheduled and neither fired nor reclaimed
	peak   int          // most ids queued at once: the bound on the arena
	swept  map[int]bool // ids whose scheduling had to reclaim every tombstone in place of growing the arena
}

func (m *refQueue) less(a, b int) bool {
	x, y := &m.all[a], &m.all[b]
	return x.at < y.at || (x.at == y.at && x.key < y.key)
}

func (m *refQueue) schedule(t Time, class int, weak bool, act, arg byte) {
	if t < m.now {
		t = m.now
	}
	key := m.seq | normalSeqBit
	switch class {
	case classGate:
		key = m.seq | gateSeqBit
	case classFault:
		key = m.seq
	}
	m.seq++
	if m.swept[len(m.all)] {
		keep := m.queued[:0]
		for _, q := range m.queued {
			if !m.all[q].dead {
				keep = append(keep, q)
			}
		}
		m.queued = keep
	}
	m.all = append(m.all, refEvent{at: t, key: key, weak: weak, act: act, arg: arg})
	m.queued = append(m.queued, len(m.all)-1)
	if len(m.queued) > m.peak {
		m.peak = len(m.queued)
	}
}

func (m *refQueue) after(d Time) Time {
	if t := m.now + d; t >= m.now {
		return t
	}
	return ^Time(0)
}

func (m *refQueue) cancel(id int) {
	if id < len(m.all) {
		m.all[id].dead = true // a fired event is no longer queued: harmless
	}
}

// head returns the next runnable id after reclaiming the tombstones ahead
// of it (all of them when nothing is runnable).
func (m *refQueue) head() (id int, ok bool) {
	id = -1
	for _, q := range m.queued {
		if !m.all[q].dead && (id < 0 || m.less(q, id)) {
			id = q
		}
	}
	keep := m.queued[:0]
	for _, q := range m.queued {
		if !m.all[q].dead || (id >= 0 && m.less(id, q)) {
			keep = append(keep, q)
		}
	}
	m.queued = keep
	return id, id >= 0
}

func (m *refQueue) count(strongOnly bool) int {
	n := 0
	for _, q := range m.queued {
		if ev := &m.all[q]; !ev.dead && !(strongOnly && ev.weak) {
			n++
		}
	}
	return n
}

// orderHarness runs one program on both queues.
type orderHarness struct {
	t   *testing.T
	e   *Engine
	evs []Event // engine handle of event id
	got []int   // ids in the order the engine fired them
	m   refQueue
	// want is m's firing order.
	want []int
}

// orderDeltas are the distances (and, for kindAbs, the times) a program
// schedules at: the neighbours of every digit boundary of the wheel, the
// distances the kernels use, three times that share a level-2, a level-1 and
// a level-0 list, and the ends of the range.
var orderDeltas = [...]Time{
	0, 1, 2, 3, 5, 7, 62, 63, 64, 65, 127, 128, 500, 3000, 4095, 4096, 4097, 4161, 4591, 4596,
	1<<18 - 1, 1 << 18, 1<<18 + 1, 1 << 24, 30e6, 1<<30 - 1, 1 << 30, 1 << 36, 1 << 42,
	1 << 48, 1 << 54, 1 << 60, 1<<63 - 1, 1 << 63, ^Time(0) - 1, ^Time(0),
}

func orderDelta(b byte) Time { return orderDeltas[int(b)%len(orderDeltas)] }

// What a program's event does when it fires (act % numActs; the rest do
// nothing). Events scheduled by an action do nothing themselves.
const (
	actChild = iota // After(delta(arg))
	actGateNow
	actFaultNow
	actCancel // Cancel(handle arg)
	actHalt
	numActs = 8
)

// Opcodes (op & 7). Bit 7 of the op byte also compares NextAt after the
// operation — itself a look that moves the wheel's reference, so a program
// chooses where it happens.
const (
	opSched  = iota // [kind, delta, act, arg]
	opBehind        // NextAt, then At between now and it — the rewind [frac, act, arg]
	opCancel        // [handle]; a handle past the last one cancels Event{}
	opNextAt
	opStep
	opRun
	opRunUntil // [delta]
	opRunFor   // [delta]

	opCheckNext = 0x80
)

// How an opSched schedules (kind % numKinds): At, AtGate and AtFault at
// now + delta, at now - delta (clamped) and at the absolute time delta, then
// After, AfterWeak and AfterWeakFault.
const (
	kindAt = iota
	kindAtGate
	kindAtFault
	kindPast           = 3 // + class
	kindAbs            = 6 // + class
	kindAfter          = 9
	kindAfterWeak      = 10
	kindAfterWeakFault = 11
	numKinds           = 12
)

func (h *orderHarness) schedule(class int, viaAfter, weak bool, t, d Time, act, arg byte) {
	id := len(h.evs)
	name := fmt.Sprintf("ev%d", id)
	fn := func() {
		h.got = append(h.got, id)
		h.act(act, arg, true)
	}
	// The reclaim rule, restated: a schedule that finds no free slot in an
	// arena of 64 or more, over half of it tombstones, must not grow it.
	e := h.e
	slots := len(e.arena)
	sweep := e.free == 0 && slots >= 64 && slots > 2*e.Pending()
	defer func() {
		if !sweep {
			return
		}
		if free := h.freeSlots(); len(e.arena) != slots || slots-free != e.Pending() {
			h.t.Fatalf("scheduling ev%d with %d slots, none free, %d live: now %d slots, %d free, %d live — the tombstones were not reclaimed",
				id, slots, e.Pending()-1, len(e.arena), free, e.Pending())
		}
		h.m.swept[id] = true
	}()
	var ev Event
	switch {
	case viaAfter && weak && class == classFault:
		ev = h.e.AfterWeakFault(d, name, fn)
	case viaAfter && weak:
		ev = h.e.AfterWeak(d, name, fn)
	case viaAfter:
		ev = h.e.After(d, name, fn)
	case class == classGate:
		ev = h.e.AtGate(t, name, fn)
	case class == classFault:
		ev = h.e.AtFault(t, name, fn)
	default:
		ev = h.e.At(t, name, fn)
	}
	h.evs = append(h.evs, ev)
}

// act performs a fired event's action on the engine or on the model.
func (h *orderHarness) act(act, arg byte, engine bool) {
	none := byte(noAct)
	switch act % numActs {
	case actChild:
		if engine {
			h.schedule(classNormal, true, false, 0, orderDelta(arg), none, 0)
		} else {
			h.m.schedule(h.m.after(orderDelta(arg)), classNormal, false, none, 0)
		}
	case actGateNow:
		if engine {
			h.schedule(classGate, false, false, h.e.Now(), 0, none, 0)
		} else {
			h.m.schedule(h.m.now, classGate, false, none, 0)
		}
	case actFaultNow:
		if engine {
			h.schedule(classFault, false, false, h.e.Now(), 0, none, 0)
		} else {
			h.m.schedule(h.m.now, classFault, false, none, 0)
		}
	case actCancel:
		if engine {
			h.cancelEngine(int(arg))
		} else {
			h.m.cancel(int(arg))
		}
	case actHalt:
		if engine {
			h.e.Halt()
		} else {
			h.m.halted = true
		}
	}
}

func (h *orderHarness) cancelEngine(k int) {
	if k < len(h.evs) {
		h.e.Cancel(h.evs[k])
	} else {
		h.e.Cancel(Event{})
	}
}

func (h *orderHarness) stepModel() bool {
	id, ok := h.m.head()
	if !ok {
		return false
	}
	for i, q := range h.m.queued {
		if q == id {
			h.m.queued = append(h.m.queued[:i], h.m.queued[i+1:]...)
			break
		}
	}
	ev := h.m.all[id]
	h.m.now = ev.at
	h.m.fired++
	h.want = append(h.want, id)
	h.act(ev.act, ev.arg, false)
	return true
}

func (h *orderHarness) runModelUntil(deadline Time) {
	h.m.halted = false
	for !h.m.halted {
		id, ok := h.m.head()
		if !ok || h.m.all[id].at > deadline {
			break
		}
		h.stepModel()
	}
	if !h.m.halted && h.m.now < deadline {
		h.m.now = deadline
	}
}

// run executes program and fails the test at the first disagreement.
func (h *orderHarness) run(program []byte) {
	next := func() byte {
		if len(program) == 0 {
			return 0
		}
		b := program[0]
		program = program[1:]
		return b
	}
	for step := 0; len(program) > 0; step++ {
		opb := next()
		op := int(opb & 7)
		switch op {
		case opSched:
			kind, dv, act, arg := int(next())%numKinds, orderDelta(next()), next(), next()
			switch {
			case kind >= kindAfter:
				class, weak := classNormal, kind != kindAfter
				if kind == kindAfterWeakFault {
					class = classFault
				}
				h.schedule(class, true, weak, 0, dv, act, arg)
				h.m.schedule(h.m.after(dv), class, weak, act, arg)
			default:
				t := dv
				switch kind / 3 {
				case 0:
					t = h.m.after(dv)
				case 1:
					t = h.m.now - dv // wraps for a large delta: any time is a fair input
				}
				h.schedule(kind%3, false, false, t, 0, act, arg)
				h.m.schedule(t, kind%3, false, act, arg)
			}
		case opBehind:
			frac, act, arg := Time(next()%3), next(), next()
			at, ok := h.e.NextAt()
			if id, mok := h.m.head(); ok != mok || (ok && h.m.all[id].at != at) {
				h.t.Fatalf("step %d: NextAt = %v, %v; reference disagrees", step, at, ok)
			}
			// now, the time just before NextAt's, or halfway between.
			t := h.m.now
			if ok && at > t {
				t += (at - t - 1) / 2 * frac
			}
			h.schedule(classNormal, false, false, t, 0, act, arg)
			h.m.schedule(t, classNormal, false, act, arg)
		case opCancel:
			k := int(next())
			h.cancelEngine(k)
			h.m.cancel(k)
		case opNextAt:
			h.checkNextAt(step)
		case opStep:
			if got, want := h.e.Step(), h.stepModel(); got != want {
				h.t.Fatalf("step %d: Step() = %v, reference %v", step, got, want)
			}
		case opRun:
			h.e.Run()
			h.m.halted = false
			for !h.m.halted && h.m.count(true) > 0 && h.stepModel() {
			}
		case opRunUntil:
			deadline := h.m.after(orderDelta(next()))
			h.e.RunUntil(deadline)
			h.runModelUntil(deadline)
		case opRunFor:
			dv := orderDelta(next())
			h.e.RunFor(dv)
			h.runModelUntil(h.m.after(dv))
		}
		h.check(step, op)
		if opb&opCheckNext != 0 {
			h.checkNextAt(step)
		}
	}
	// Drain: everything left fires, in order (a halting event only pauses
	// it), and the arena empties.
	for first := true; first || h.m.count(false) > 0; first = false {
		h.e.RunUntil(^Time(0))
		h.runModelUntil(^Time(0))
		h.check(-1, opRunUntil)
	}
	h.checkNextAt(-1) // nothing is left; the look reclaims what a halt left queued
	if n := h.freeSlots(); n != len(h.e.arena) {
		h.t.Fatalf("after the drain %d of %d arena slots are free", n, len(h.e.arena))
	}
}

func (h *orderHarness) checkNextAt(step int) {
	at, ok := h.e.NextAt()
	id, mok := h.m.head()
	if ok != mok || (ok && at != h.m.all[id].at) {
		h.t.Fatalf("step %d: NextAt() = %v, %v; reference has id %d, %v", step, at, ok, id, mok)
	}
	h.checkWheel(step)
}

func (h *orderHarness) check(step, op int) {
	h.t.Helper()
	if len(h.got) != len(h.want) {
		h.t.Fatalf("step %d (op %d): engine fired %d events, reference %d\n got  %v\n want %v", step, op, len(h.got), len(h.want), h.got, h.want)
	}
	for i := range h.got {
		if h.got[i] != h.want[i] {
			h.t.Fatalf("step %d (op %d): firing order diverges at %d\n got  %v\n want %v", step, op, i, h.got, h.want)
		}
	}
	e, m := h.e, &h.m
	if e.Now() != m.now || e.Fired() != m.fired || e.Pending() != m.count(false) || e.StrongPending() != m.count(true) {
		h.t.Fatalf("step %d (op %d): engine now %v fired %d pending %d strong %d; reference now %v fired %d pending %d strong %d",
			step, op, e.Now(), e.Fired(), e.Pending(), e.StrongPending(), m.now, m.fired, m.count(false), m.count(true))
	}
	if len(e.arena) > m.peak {
		h.t.Fatalf("step %d (op %d): arena holds %d slots, but at most %d events were ever scheduled at once", step, op, len(e.arena), m.peak)
	}
	h.checkWheel(step)
}

// checkWheel verifies the wheel's own invariants: every queued entry is due
// at or after cur and sits in the list its time selects, a list not marked
// mixed (every level-0 list) holds one timestamp in firing order, occupancy
// bits match the lists, and the lists hold exactly the arena slots that are
// not free.
func (h *orderHarness) checkWheel(step int) {
	h.t.Helper()
	e := h.e
	queued := 0
	for l := 0; l < wheelLevels; l++ {
		lv := &e.lv[l]
		if e.lv[0].mixed != 0 || lv.mixed&^lv.occ != 0 {
			h.t.Fatalf("step %d: level %d marks lists mixed (%x) that are empty or at level 0", step, l, lv.mixed)
		}
		if (lv.occ != 0) != (e.levels&(1<<uint(l)) != 0) {
			h.t.Fatalf("step %d: level %d occupancy %x, summary %b", step, l, lv.occ, e.levels)
		}
		for b := lv.occ; b != 0; b &= b - 1 {
			j := bits.TrailingZeros64(b)
			head, tail := lv.lists[j].head, lv.lists[j].tail
			for i, prev := head, uint64(0); ; i = e.arena[i].next {
				s := &e.arena[i]
				queued++
				if queued > len(e.arena) {
					h.t.Fatalf("step %d: list %d/%d does not end", step, l, j)
				}
				x := uint64(s.at ^ e.cur)
				wantL := 0
				if x != 0 {
					wantL = (bits.Len64(x) - 1) / 6
				}
				if s.at < e.cur || wantL != l || int(s.at>>(6*uint(l)))&63 != j {
					h.t.Fatalf("step %d: entry due %d is in list %d/%d with cur %d", step, s.at, l, j, e.cur)
				}
				if lv.mixed&(1<<uint(j)) == 0 && i != head && (s.seq <= prev || s.at != e.arena[head].at) {
					h.t.Fatalf("step %d: list %d/%d holds two times or is out of order, and is not marked mixed", step, l, j)
				}
				prev = s.seq
				if i == tail {
					break
				}
			}
		}
	}
	if free := h.freeSlots(); queued+free != len(e.arena) {
		h.t.Fatalf("step %d: %d entries queued + %d free != %d arena slots", step, queued, free, len(e.arena))
	}
}

// freeSlots walks the engine's free list.
func (h *orderHarness) freeSlots() int {
	n := 0
	for f := h.e.free; f != 0; f = h.e.arena[f-1].next {
		if n++; n > len(h.e.arena) {
			h.t.Fatal("the free list does not end")
		}
	}
	return n
}

func runOrderProgram(t *testing.T, program []byte) { runOrder(t, program) }

func runOrder(t *testing.T, program []byte) *orderHarness {
	if len(program) > 4096 {
		program = program[:4096] // the reference is quadratic
	}
	h := &orderHarness{t: t, e: NewEngine(1)}
	h.m.swept = map[int]bool{}
	h.run(program)
	return h
}

// d returns the program byte that selects delta v.
func d(v Time) byte {
	for i, x := range orderDeltas {
		if x == v {
			return byte(i)
		}
	}
	panic(fmt.Sprintf("no delta %d in orderDeltas", v))
}

const noAct = numActs - 1

// prog concatenates program fragments.
func prog(parts ...[]byte) []byte {
	var p []byte
	for _, part := range parts {
		p = append(p, part...)
	}
	return p
}

// at is an opSched of the given kind that does nothing when it fires.
func at(kind int, v Time) []byte { return []byte{opSched, byte(kind), d(v), noAct, 0} }

// acting is an At(now + v) whose event performs act when it fires.
func acting(v Time, act int, arg byte) []byte {
	return []byte{opSched, kindAt, d(v), byte(act), arg}
}

// allClasses schedules, for time v under timebase kind (0, kindPast,
// kindAbs), a normal event, a gate, a normal event that schedules a fault at
// its own instant, and a fault.
func allClasses(kind int, v Time) []byte {
	return prog(at(kind+kindAt, v), at(kind+kindAtGate, v),
		[]byte{opSched, byte(kind + kindAt), d(v), actFaultNow, 0}, at(kind+kindAtFault, v))
}

func repeat(n int, part ...byte) []byte {
	var p []byte
	for i := 0; i < n; i++ {
		p = append(p, part...)
	}
	return p
}

// orderSeeds are the named cases every run checks and the fuzzer starts
// from. sweeps is how often the program must make the engine reclaim its
// tombstones: the case written for that has to reach it.
var orderSeeds = []struct {
	name    string
	sweeps  int
	program []byte
}{
	{"digit boundaries", 0, func() []byte {
		// One event on each side of every digit boundary, scheduled from far
		// to near, fired one Step at a time with NextAt compared in between.
		var p []byte
		for _, v := range []Time{^Time(0), 1 << 63, 1<<63 - 1, 1 << 30, 1<<30 - 1, 1<<18 + 1, 1 << 18, 1<<18 - 1, 4097, 4096, 4095, 65, 64, 63, 1, 0} {
			p = append(p, at(kindAt, v)...)
		}
		return prog(p, repeat(16, opStep|opCheckNext))
	}()},
	{"digit boundaries, near to far, weak and faults", 0, func() []byte {
		var p []byte
		for _, v := range []Time{0, 1, 63, 64, 4095, 4096, 1 << 18, 1 << 30, 1 << 63, ^Time(0)} {
			p = append(p, at(kindAfterWeak, v)...)
			p = append(p, at(kindAfterWeakFault, v)...)
			p = append(p, at(kindAfter, v)...)
		}
		return prog(p, []byte{opRun, opNextAt, opRunFor, d(1 << 30), opNextAt})
	}()},
	{"after saturates", 0, prog(
		[]byte{opRunUntil, d(500)},
		at(kindAfter, ^Time(0)), at(kindAfterWeak, ^Time(0)-1), at(kindAfterWeakFault, 1<<63), at(kindAfter, 5),
		[]byte{opStep | opCheckNext, opRunFor, d(^Time(0))},
	)},
	{"rewind after RunUntil passed every event", 0, prog(
		at(kindAt, 5),
		[]byte{opRunUntil, d(3000)}, // the clock is now beyond every event fired
		at(kindAt, 1<<18), at(kindAt, 4096), at(kindAt, 4161),
		[]byte{opNextAt}, // moves the reference to now + 4096
		[]byte{opBehind, 1, noAct, 0, opBehind, 2, noAct, 0, opBehind, 0, noAct, 0},
		at(kindAt, 4096), // joins the entry the rewinds carried up and back down
		repeat(3, opStep|opCheckNext), []byte{opRun},
	)},
	{"rewind across levels", 0, prog(
		at(kindAt, 1<<30), at(kindAt, 1<<30-1), at(kindAt, 1<<36), []byte{opNextAt},
		at(kindAt, 1<<18), []byte{opNextAt},
		at(kindAt, 64), []byte{opNextAt},
		acting(0, actGateNow, 0), []byte{opRun},
	)},
	{"gate and fault at now from inside a normal event", 0, prog(
		acting(500, actGateNow, 0), acting(500, actFaultNow, 0), at(kindAt, 500),
		at(kindAtGate, 500), acting(500, actGateNow, 0), at(kindAt, 500),
		[]byte{opStep, opStep, opStep | opCheckNext, opStep, opStep, opRun},
	)},
	{"one timestamp from three levels", 0, prog(
		// 4596 is two levels from 1, one from 4161 and none from 4591.
		at(kindAbs, 1), at(kindAbs, 4161), at(kindAbs, 4591),
		allClasses(kindAbs, 4596), []byte{opStep, opStep},
		allClasses(kindAbs, 4596), []byte{opStep},
		allClasses(kindAbs, 4596), allClasses(kindPast, 0), []byte{opStep | opCheckNext, opRun},
	)},
	{"a list of cancelled entries only", 0, prog(
		at(kindAt, 4096), at(kindAt, 4097), at(kindAt, 4161), at(kindAt, 1<<18),
		[]byte{opCancel, 0, opCancel, 1, opCancel, 2, opCancel, 2, opCancel, 200},
		[]byte{opNextAt, opStep, opStep},
	)},
	{"cancel from inside an event, stale and zero handles", 0, prog(
		acting(5, actCancel, 1), at(kindAt, 5),
		acting(7, actCancel, 0), // handle 0 has fired by then
		[]byte{opSched, kindAfterWeak, d(3000), actChild, d(30e6)},
		[]byte{opRun, opCancel, 1, opCancel, 255, opRunFor, d(3000), opRunFor, d(30e6)},
	)},
	{"halt", 0, prog(
		at(kindAt, 1), acting(2, actHalt, 0), at(kindAt, 3),
		[]byte{opRunUntil, d(500), opRunUntil, d(500), opRun},
	)},
	{"timer churn with tombstones", 0, func() []byte {
		// The kernels' pattern: a 30 s watchdog armed and cancelled around
		// short timers, many times over.
		var p []byte
		for i := 0; i < 40; i++ {
			p = prog(p, at(kindAfter, 30e6), acting(500, actChild, d(5)), at(kindAfter, 3000),
				[]byte{opCancel, byte(3 * i), opStep})
		}
		return prog(p, []byte{opRunFor, d(30e6), opRun})
	}()},
	{"tombstones reclaimed when the arena would grow", 2, func() []byte {
		// Five live events and 140 armed-and-cancelled ones, at level 0 (the
		// 64 µs around the first event), level 1 and far above: the arena
		// fills to 64 twice and is swept each time, with the clock standing
		// still and after it has moved.
		p := prog(at(kindAt, 1), at(kindAt, 62), at(kindAt, 500), at(kindAfterWeak, 1<<18), at(kindAt, 30e6))
		id := byte(5)
		churn := func(n int, deltas ...Time) {
			for i := 0; i < n; i++ {
				p = prog(p, at(kindAfter, deltas[i%len(deltas)]), []byte{opCancel, id})
				id++
			}
		}
		churn(70, 2, 3, 5, 7, 63, 30e6, 64, 127, 4096, 1<<30)
		p = prog(p, []byte{opStep | opCheckNext, opStep})
		churn(70, 30e6, 1, 3000, 1<<24, 0)
		return prog(p, []byte{opRunFor, d(3000), opRun, opRunFor, d(30e6)})
	}()},
}

func TestEngineOrderSeeds(t *testing.T) {
	for _, s := range orderSeeds {
		t.Run(s.name, func(t *testing.T) {
			if h := runOrder(t, s.program); len(h.m.swept) < s.sweeps {
				t.Fatalf("the engine reclaimed tombstones %d times, want at least %d", len(h.m.swept), s.sweeps)
			}
		})
	}
}

func FuzzEngineOrder(f *testing.F) {
	for _, s := range orderSeeds {
		f.Add(s.program)
	}
	f.Fuzz(runOrderProgram)
}

// After and its weak variants must not wrap: "never" is the end of time, not
// now.
func TestAfterSaturates(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(10)
	var fired []string
	e.After(^Time(0), "never", func() { fired = append(fired, "never") })
	e.AfterWeak(^Time(0)-5, "never-weak", func() { fired = append(fired, "never-weak") })
	e.AfterWeakFault(1<<63+1<<62, "far-fault", func() { fired = append(fired, "far-fault") })
	e.After(20, "soon", func() { fired = append(fired, "soon") })
	if at, _ := e.NextAt(); at != 30 {
		t.Fatalf("NextAt = %v, want 30", at)
	}
	e.RunFor(1 << 40)
	if len(fired) != 1 || fired[0] != "soon" {
		t.Fatalf("fired %v before the end of time, want only soon", fired)
	}
	if at, _ := e.NextAt(); at != 10+1<<63+1<<62 {
		t.Fatalf("NextAt = %d, want now + the fault's delay (no saturation needed)", uint64(at))
	}
	e.RunFor(^Time(0)) // saturates too: runs to the end of time
	if e.Now() != ^Time(0) || len(fired) != 4 || fired[1] != "far-fault" {
		t.Fatalf("at %d fired %v, want all four by the end of time", uint64(e.Now()), fired)
	}
}
