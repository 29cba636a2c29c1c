package netw

import (
	"math/rand"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// The differential test of the arrival calendar: a byte string drives the
// same pushes and pumps on a Network's calendar and on a reference that
// keeps the entries in a slice and finds what is next by scanning it with
// pendLess. Every delivery must be the reference's minimum, at exactly its
// arrival time, and PendingFrames must agree after every step. Gates follow
// the production rule — one per instant: a push arms one exactly when the
// reference holds nothing else due at its time — and the engine must count
// one event per entry, however many gates the entries shared. No frame is
// filed for the instant already reached (TestPushForNowPanics), so none
// joins an instant a pump is draining. The golden trace and the
// shard-invariance matrix pin the same order end to end; this is the test
// that says which push or pump broke it.

// pendDeltas are the distances a program files frames at: the transit times
// the workloads see, the neighbours and exact multiples of every table size
// the test grows through (times that alias into one list), and a horizon far
// beyond any table.
var pendDeltas = [...]sim.Time{
	0, 1, 2, 3, 5, 63, 64, 65, 127, 128, 129, 192, 256, 257, 320, 500, 512,
	576, 768, 1024, 4096, 20000, 1 << 20,
}

func pendDelta(b byte) sim.Time { return pendDeltas[int(b)%len(pendDeltas)] }

// Opcodes (op % numPendOps).
const (
	pendOpPush  = iota // [delta, key, flags]: one frame
	pendOpGroup        // [delta, n, key]: 1 + n%64 frames due at one instant; n's top bit is push's flag 0x80
	pendOpPump         // [delta]: a pump at an instant that may have nothing due
	pendOpRun          // [delta]: advance the clock, delivering what is due
	numPendOps
)

const pendMachines = 4

// pendHarness runs one program on the calendar and on the reference. It is
// the endpoint of every machine, so it sees each delivery as it happens.
type pendHarness struct {
	t   *testing.T
	eng *sim.Engine
	n   *Network
	ref []pendEnt             // the reference: unordered, scanned with pendLess
	ids map[*msg.Message]int  // frame -> push ordinal, for messages
	re  map[*msg.Message]byte // frames whose delivery files two more for this same instant
	key map[pendEnt]bool      // keys in use (entries less m): pendLess is a total order only over distinct ones
	dlv int                   // deliveries so far

	gates int // gates armed by pushes
	extra int // gates armed by pendOpPump, with or without anything due
	fired int // netw:pump events the engine ran
}

func newPendHarness(t *testing.T) *pendHarness {
	h := &pendHarness{t: t, eng: sim.NewEngine(1), ids: map[*msg.Message]int{},
		re: map[*msg.Message]byte{}, key: map[pendEnt]bool{}}
	h.n = New(h.eng, Config{})
	for m := addr.MachineID(1); m <= pendMachines; m++ {
		h.n.Attach(m, h)
	}
	h.eng.OnFire = func(name string, _ sim.Time) {
		if name == "netw:pump" {
			h.fired++
		}
	}
	return h
}

// push files one frame due d from now on both sides, as canonSend and
// arqEnqueue do: an entry, and a gate if pendPush asks for one — which must
// be exactly when the reference holds no other entry due at that time. A
// frame is due at least 1 µs ahead, as every Send is, so a zero d files for
// the next microsecond. The key byte picks receiver, sender, a sequence out
// of four, class and attempt, so programs repeat (to, from, seq) under
// different classes and attempts; a key already in use moves to the next
// free attempt. Flag 0x80 makes the frame's delivery file two more frames due
// 1 µs after it.
func (h *pendHarness) push(d sim.Time, key, flags byte) {
	ent := pendEnt{
		at: h.eng.Now() + max(d, 1), to: addr.MachineID(1 + key&3), from: addr.MachineID(1 + key>>2&3),
		seq: uint64(key >> 4 & 3), class: key >> 6 % 3, attempt: uint32(flags & 3),
	}
	for h.key[ent] {
		ent.attempt++
	}
	h.key[ent] = true
	ent.m = &msg.Message{}
	h.ids[ent.m] = len(h.ids)
	if flags&0x80 != 0 {
		h.re[ent.m] = key + flags
	}
	want := true
	for i := range h.ref {
		if h.ref[i].at == ent.at {
			want = false
		}
	}
	h.ref = append(h.ref, ent)
	if gate := h.n.pendPush(ent); gate != want {
		h.t.Fatalf("push %d due %v at %v: pendPush asks for a gate: %v, the reference says %v",
			h.ids[ent.m], ent.at, h.eng.Now(), gate, want)
	}
	if want {
		h.gates++
		h.eng.AtGate(ent.at, "netw:pump", h.n.pumpFn)
	}
}

// DeliverFrame checks one delivery against the reference's minimum.
func (h *pendHarness) DeliverFrame(m *msg.Message) {
	if len(h.ref) == 0 {
		h.t.Fatalf("delivery %d: frame %d delivered, the reference holds nothing", h.dlv, h.ids[m])
	}
	min := 0
	for i := range h.ref {
		if pendLess(&h.ref[i], &h.ref[min]) {
			min = i
		}
	}
	want := h.ref[min]
	if want.m != m || want.at != h.eng.Now() {
		h.t.Fatalf("delivery %d at %v: got frame %d, reference next is frame %d due %v",
			h.dlv, h.eng.Now(), h.ids[m], h.ids[want.m], want.at)
	}
	h.ref = append(h.ref[:min], h.ref[min+1:]...)
	h.dlv++
	if key, ok := h.re[m]; ok {
		// Two pushes for one pop can grow the table under the pump, which
		// must then find the rest of its instant in the new table.
		h.push(1, key, key&0x7f)
		h.push(1, key+85, key&0x7f)
	}
}

// check compares the observables after a step: the counter is exact and
// nothing due is left behind.
func (h *pendHarness) check(step int) {
	h.t.Helper()
	if got := h.n.PendingFrames(); got != len(h.ref) {
		h.t.Fatalf("step %d: PendingFrames() = %d, reference holds %d", step, got, len(h.ref))
	}
	for i := range h.ref {
		if h.ref[i].at < h.eng.Now() {
			h.t.Fatalf("step %d: frame %d due %v still queued at %v", step, h.ids[h.ref[i].m], h.ref[i].at, h.eng.Now())
		}
	}
}

// arena counts the calendar's queued and free entries by walking its lists.
func (h *pendHarness) arena() (queued, free int) {
	n := h.n
	for _, s := range n.pendSlots {
		for i := s.head; i != 0; i = n.pend[i].next {
			if queued++; queued > len(n.pend) {
				h.t.Fatal("a calendar list does not end")
			}
		}
	}
	for i := n.pendFree; i != 0; i = n.pend[i].next {
		if free++; free > len(n.pend) {
			h.t.Fatal("the calendar's free list does not end")
		}
	}
	return queued, free
}

func (h *pendHarness) run(program []byte) {
	next := func() byte {
		if len(program) == 0 {
			return 0
		}
		b := program[0]
		program = program[1:]
		return b
	}
	for step := 0; len(program) > 0; step++ {
		switch next() % numPendOps {
		case pendOpPush:
			h.push(pendDelta(next()), next(), next())
		case pendOpGroup:
			d, nb, key := pendDelta(next()), next(), next()
			for i := 0; i <= int(nb)%64; i++ {
				h.push(d, key+byte(i)*37, byte(i)&0x7f|nb&0x80)
			}
		case pendOpPump:
			h.extra++
			h.eng.AtGate(h.eng.Now()+pendDelta(next()), "netw:pump", h.n.pumpFn)
		case pendOpRun:
			h.eng.RunFor(pendDelta(next()))
		}
		h.check(step)
	}
	h.eng.Run()
	h.check(-1)
	if len(h.ref) != 0 {
		h.t.Fatalf("%d frames never delivered", len(h.ref))
	}
	if queued, free := h.arena(); queued != 0 || free != len(h.n.pend)-1 {
		h.t.Fatalf("after the drain: %d entries queued, %d of %d free", queued, free, len(h.n.pend)-1)
	}
	// Every gate ran, and the engine counted one event per entry: a gate
	// that landed k entries counts k, a gate that found nothing (only a
	// pendOpPump's, or the gate whose entries such a pump landed first)
	// counts one.
	if h.fired != h.gates+h.extra {
		h.t.Fatalf("%d netw:pump events fired, %d gates armed by pushes and %d by pumps", h.fired, h.gates, h.extra)
	}
	if got, want := h.eng.Fired(), uint64(len(h.ids)+h.extra); got != want {
		h.t.Fatalf("Fired() = %d for %d entries and %d extra pumps, want %d", got, len(h.ids), h.extra, want)
	}
}

func runPendProgram(t *testing.T, program []byte) {
	if len(program) > 2048 {
		program = program[:2048] // the reference is quadratic
	}
	newPendHarness(t).run(program)
}

// pd returns the program byte that selects delta v.
func pd(v sim.Time) byte {
	for i, x := range pendDeltas {
		if x == v {
			return byte(i)
		}
	}
	panic("no such delta in pendDeltas")
}

// pendSeeds are the named cases every run checks and the fuzzer starts from.
// slots, when set, is the table size the program must have grown to: a case
// written to cross a growth has to reach it.
var pendSeeds = []struct {
	name    string
	slots   int
	program []byte
}{
	{"one frame", pendMinSlots, []byte{pendOpPush, pd(500), 0, 0, pendOpRun, pd(500)}},
	{"aliases of one list, filed far to near, near to far and in between", 0, []byte{
		// Multiples of 64 share a list at 64 slots, and so do 1, 65, 129, 257.
		pendOpPush, pd(1024), 3, 0, pendOpPush, pd(576), 3, 0, pendOpPush, pd(512), 3, 0,
		pendOpPush, pd(320), 3, 0, pendOpPush, pd(256), 3, 0, pendOpPush, pd(192), 3, 0,
		pendOpPush, pd(128), 3, 0, pendOpPush, pd(64), 3, 0, pendOpPush, pd(0), 3, 0,
		pendOpPush, pd(1), 7, 0, pendOpPush, pd(65), 7, 0, pendOpPush, pd(129), 7, 0, pendOpPush, pd(257), 7, 0,
		pendOpPush, pd(256), 2, 0, pendOpPush, pd(256), 4, 1, pendOpPush, pd(768), 3, 0,
		pendOpRun, pd(64), pendOpRun, pd(64), pendOpRun, pd(1024),
	}},
	{"a same-instant group of 64, every class, repeated keys", 2 * pendMinSlots, []byte{
		pendOpGroup, pd(500), 63, 0, pendOpGroup, pd(500), 63, 0x55, pendOpRun, pd(500),
	}},
	{"growth to 256 slots with frames pending", 4 * pendMinSlots, []byte{
		pendOpGroup, pd(500), 63, 0, pendOpGroup, pd(64), 63, 9, pendOpGroup, pd(576), 40, 3,
		pendOpRun, pd(65), // delivers one group, between two growths
		pendOpGroup, pd(512), 63, 1, pendOpGroup, pd(257), 63, 77,
		pendOpRun, pd(4096),
	}},
	{"growth under the pump: every delivery of a full table files two frames for the next microsecond", 4 * pendMinSlots, []byte{
		pendOpGroup, pd(500), 63 | 0x80, 0, pendOpPush, pd(512), 1, 0, pendOpRun, pd(512),
	}},
	{"pumps that find nothing, and pushes from a delivery", 0, []byte{
		pendOpPump, pd(0), pendOpPump, pd(3), pendOpRun, pd(5),
		pendOpPush, pd(500), 0x0f, 0x80, pendOpPush, pd(500), 0x00, 0x81, pendOpPush, pd(500), 0xff, 0x82,
		pendOpPump, pd(500), pendOpPump, pd(64), pendOpPump, pd(512), pendOpPump, pd(20000),
		pendOpRun, pd(512),
	}},
}

func TestPendOrderSeeds(t *testing.T) {
	for _, s := range pendSeeds {
		t.Run(s.name, func(t *testing.T) {
			h := newPendHarness(t)
			h.run(s.program)
			if got := len(h.n.pendSlots); s.slots != 0 && got != s.slots {
				t.Fatalf("the program ended at %d slots, want %d", got, s.slots)
			}
		})
	}
	// Random programs: the fuzzer's input space, sampled.
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		program := make([]byte, 16+rng.Intn(600))
		rng.Read(program)
		runPendProgram(t, program)
	}
}

func FuzzPendOrder(f *testing.F) {
	for _, s := range pendSeeds {
		f.Add(s.program)
	}
	f.Fuzz(runPendProgram)
}

// pumpCounter counts the netw:pump events eng runs.
func pumpCounter(eng *sim.Engine) *int {
	pumps := new(int)
	eng.OnFire = func(name string, _ sim.Time) {
		if name == "netw:pump" {
			*pumps++
		}
	}
	return pumps
}

// TestOneGateLandsAnInstant: k frames from k senders to k receivers, sent in
// an order pendLess does not keep and all due at one instant, share one
// netw:pump. It lands them in pendLess order (receiver first) and the engine
// counts k events for it, as it did when every frame had a gate of its own.
func TestOneGateLandsAnInstant(t *testing.T) {
	const k = 8
	eng := sim.NewEngine(1)
	n := New(eng, Config{Latency: 100})
	var order []addr.MachineID
	for m := addr.MachineID(1); m <= 2*k; m++ {
		n.Attach(m, endpointFunc(func(*msg.Message) { order = append(order, m) }))
	}
	pumps := pumpCounter(eng)
	for i := k; i >= 1; i-- { // sender i to receiver 2k+1-i: receivers in ascending order
		n.Send(addr.MachineID(i), addr.MachineID(2*k+1-i), frame(8))
	}
	eng.Run()
	if *pumps != 1 || eng.Fired() != k || len(order) != k {
		t.Fatalf("%d pumps fired, Fired() = %d, %d frames landed; want 1, %d, %d", *pumps, eng.Fired(), len(order), k, k)
	}
	for i, to := range order {
		if to != addr.MachineID(k+1+i) {
			t.Fatalf("landing order %v, want receivers %d..%d in turn", order, k+1, 2*k)
		}
	}
}

// endpointFunc adapts a function to Endpoint.
type endpointFunc func(*msg.Message)

func (f endpointFunc) DeliverFrame(m *msg.Message) { f(m) }

// A frame filed after its arrival time would sit in a list no pump visits
// and hold PendingFrames above zero for ever; it must panic instead.
func TestLatePushPanics(t *testing.T) {
	eng, n, _, r2 := setup(Config{})
	n.Send(1, 2, frame(8))
	eng.RunFor(1000)
	if len(r2.got) != 1 || n.PendingFrames() != 0 {
		t.Fatalf("delivered %d, %d pending", len(r2.got), n.PendingFrames())
	}
	defer func() {
		r, _ := recover().(string)
		if !strings.Contains(r, "arrival time has passed") {
			t.Fatalf("EnqueueRemote with a stale At: recovered %q, want the late-frame panic", r)
		}
		if n.PendingFrames() != 0 {
			t.Fatalf("the refused frame is counted: %d pending", n.PendingFrames())
		}
	}()
	n.EnqueueRemote(RemoteFrame{From: 1, To: 2, At: eng.Now() - 1, Seq: 2, M: frame(8)})
}

// TestPushForNowPanics: a frame filed for the instant already reached — by a
// driver, or by a delivery the pump of that instant is making — panics. The
// pump may already be past the frame's place in the list, and a gate armed
// for it could not run before the pump that is running.
func TestPushForNowPanics(t *testing.T) {
	for _, tt := range []struct {
		name     string
		fromPump bool
	}{{"from a driver", false}, {"from a delivery", true}} {
		t.Run(tt.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			n := New(eng, Config{})
			var got any
			pushed := false
			push := func() {
				defer func() { got = recover() }()
				pushed = true
				n.pendPush(pendEnt{at: eng.Now(), to: 2, from: 1, seq: 9, m: &msg.Message{}})
			}
			n.Attach(1, endpointFunc(func(*msg.Message) {}))
			n.Attach(2, endpointFunc(func(*msg.Message) {
				if tt.fromPump && !pushed {
					push() // once: a pump that took the frame would deliver it here again
				}
			}))
			n.Send(1, 2, frame(8))
			eng.Run()
			if !tt.fromPump {
				push()
			}
			if r, _ := got.(string); !strings.Contains(r, "arrival time has passed") {
				t.Fatalf("pendPush for now at %v: recovered %v, want the late-frame panic", eng.Now(), got)
			}
			if n.PendingFrames() != 0 {
				t.Fatalf("the refused frame is counted: %d pending", n.PendingFrames())
			}
		})
	}
}
