package chaos_test

// The schedule explorer: one migration of §3.1 on a lossless network,
// enumerated fault by fault instead of sampled by a seeded soak.
//
// The scene is three machines on one engine: a Recorder on m1, a
// sequence-stamped sender on m3 aiming at the Recorder's birth address, and
// one RequestMigrationOf from m1 to m2. The engine is deterministic, so a
// schedule is a list of faults, each armed on one pair of machines just
// before one event of the scene (counted from the request) and disarmed
// just after it:
//
//   - drop: Partition the pair, Heal it after the event: every frame the
//     event sends between the two is lost;
//   - dup: DuplicateNext for every frame the event sends from→to, only at
//     events that send no user frame: a lossless network has no receiver
//     dedup, so a duplicated user frame is delivered twice by design;
//   - reorder: DelayNext by 1 µs: the event's first frame from→to lands
//     behind anything due at its instant;
//   - late: DelayNext by more than MigrateTimeout: it lands after both
//     watchdogs have fired.
//
// Frames due at one instant land inside one netw:pump in canonical (to,
// from, seq) order, so the only orders there are to choose are the ones a
// delay makes; the network's fault plane covers every choice and the
// explorer adds no hook. Candidates are read off each event's traffic
// (candidates), and a fault that injected nothing (NetStats'
// PartitionDropped, DupInjected and DelayInjected unmoved) is pruned: its
// leaf would be another schedule's. Every other schedule runs to quiescence
// and is a leaf, checked by verdict.
//
// Named schedules (namedSchedules) are the races the kernel's tests used to
// force by hand, and the counterexamples the explorer found, each now a
// clean schedule that pins its fix: every leaf must pass its check.
// Budget 1 is exhaustive and runs in tier 1; budget 2
// (explore_budget2_test.go) is the pruned product of two faults.

import (
	"fmt"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/chaos"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

const (
	// exploreTimeout is the scene's kernel.Config.MigrateTimeout, the
	// default written out: a late frame is held past it.
	exploreTimeout = 30_000_000
	lateBy         = exploreTimeout + 1_000

	// The sender on m3 stamps sceneSends messages, one every sendEvery
	// from the request on, so user traffic is held, forwarded at step 6
	// and forwarded again through the forwarding address.
	sceneSends = 8
	sendEvery  = 1_000
)

type action uint8

const (
	drop action = iota
	dup
	reorder
	late
)

func (a action) String() string { return [...]string{"drop", "dup", "reorder", "late"}[a] }

// fault arms act on the pair (from, to) before event at and disarms it after.
type fault struct {
	at       int
	act      action
	from, to addr.MachineID
}

func (f fault) String() string { return fmt.Sprintf("%v %d→%d @%d", f.act, f.from, f.to, f.at) }

type schedule []fault

func (s schedule) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return strings.Join(parts, ", ")
}

// scene is one run of the explorer's cluster.
type scene struct {
	t    testing.TB
	c    *core.Cluster
	net  *netw.Network
	rec  addr.ProcessID
	step int // events fired since the migration request
}

func newScene(t testing.TB) *scene {
	t.Helper()
	c, err := core.New(core.Options{Machines: 3, Kernel: kernel.Config{MigrateTimeout: exploreTimeout}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Recorder{}})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2_000)
	for i := 0; i < sceneSends; i++ {
		seq := uint32(i)
		c.EngineOf(3).At(c.Now()+sim.Time(1_000+i*sendEvery), "drive:send", func() {
			body := []byte{byte(seq), byte(seq >> 8), byte(seq >> 16), byte(seq >> 24)}
			c.Kernel(3).GiveMessageTo(addr.At(rec, 1), addr.KernelAddr(3), body)
		})
	}
	c.Kernel(1).RequestMigrationOf(addr.At(rec, 1), 2)
	return &scene{t: t, c: c, net: c.NetworkOfShard(0), rec: rec}
}

func (s *scene) fire() {
	if !s.c.Engine().Step() {
		s.t.Fatalf("the scene went idle at event %d", s.step)
	}
	s.step++
}

// inject fires the event f is armed before, with f armed, and reports
// whether the fault plane injected anything.
func (s *scene) inject(f fault) bool {
	for s.step < f.at {
		s.fire()
	}
	before := s.net.Stats()
	switch f.act {
	case drop:
		s.net.Partition(f.from, f.to)
	case dup:
		s.net.DuplicateNext(f.from, f.to, 1<<16)
	case reorder:
		s.net.DelayNext(f.from, f.to, 1)
	case late:
		s.net.DelayNext(f.from, f.to, lateBy)
	}
	s.fire()
	switch f.act {
	case drop:
		s.net.Heal(f.from, f.to)
	case dup:
		s.net.DuplicateNext(f.from, f.to, 0)
	default:
		s.net.DelayNext(f.from, f.to, 0)
	}
	after := s.net.Stats()
	return after.PartitionDropped+after.DupInjected+after.DelayInjected >
		before.PartitionDropped+before.DupInjected+before.DelayInjected
}

// play runs sch on a fresh scene to quiescence. ok is false when one of its
// faults injected nothing: the schedule is pruned.
func play(t testing.TB, sch schedule) (s *scene, ok bool) {
	s = newScene(t)
	for _, f := range sch {
		if !s.inject(f) {
			return s, false
		}
	}
	s.c.Run()
	return s, true
}

// traffic is what one event sent: bit m of from (to) is set when machine m
// sent (received) a frame, and user when any frame was a user message.
type traffic struct {
	from, to uint8
	user     bool
}

// trajectory plays sch and then steps the rest of its run to quiescence,
// returning the traffic of every event from the first after sch's last
// fault on, indexed by event number.
func trajectory(t testing.TB, sch schedule) (first int, evs []traffic) {
	s := newScene(t)
	for _, f := range sch {
		if !s.inject(f) {
			t.Fatalf("%v: pruned schedule has no trajectory", sch)
		}
	}
	first = s.step
	for s.c.Engine().StrongPending() > 0 {
		before := s.net.Stats()
		s.fire()
		after := s.net.Stats()
		var tr traffic
		for m := addr.MachineID(1); m <= 3; m++ {
			if after.PerMachine[m].FramesOut > before.PerMachine[m].FramesOut {
				tr.from |= 1 << m
			}
			if after.PerMachine[m].FramesIn > before.PerMachine[m].FramesIn {
				tr.to |= 1 << m
			}
		}
		tr.user = after.ByKind[msg.KindUser] > before.ByKind[msg.KindUser]
		evs = append(evs, tr)
	}
	return first, evs
}

// candidates lists the faults worth arming before an event with traffic tr:
// every action on every pair the event sends on, a duplicate only where it
// sends no user frame. A drop severs the pair both ways and is listed once,
// from the lower machine.
func candidates(at int, tr traffic) []fault {
	sends := func(a, b addr.MachineID) bool { return a != b && tr.from&(1<<a) != 0 && tr.to&(1<<b) != 0 }
	var out []fault
	for a := addr.MachineID(1); a <= 3; a++ {
		for b := addr.MachineID(1); b <= 3; b++ {
			if a < b && (sends(a, b) || sends(b, a)) {
				out = append(out, fault{at, drop, a, b})
			}
			if !sends(a, b) {
				continue
			}
			if !tr.user {
				out = append(out, fault{at, dup, a, b})
			}
			out = append(out, fault{at, reorder, a, b}, fault{at, late, a, b})
		}
	}
	return out
}

// verdict is the leaf check of a quiescent scene: the cluster invariants,
// at-most-once delivery with every loss accounted, exactly one live copy of
// the Recorder, and §6's bill — 3 transfers and 9 administrative messages —
// on every completed migration's ledger record.
func (s *scene) verdict() []string {
	c := s.c
	bad := chaos.CheckInvariants(c)
	seen := map[uint32]uint32{}
	live := s.liveCopies()
	for _, m := range live {
		b, _ := c.Kernel(m).BodyOf(s.rec)
		for q, n := range b.(*workload.Recorder).Seen {
			seen[q] += n
		}
	}
	if len(live) != 1 {
		bad = append(bad, fmt.Sprintf("%v has live copies on %v, want exactly one", s.rec, live))
	}
	bad = append(bad, chaos.CheckDelivery(c, seen, sceneSends)...)
	for _, r := range c.Ledger().Records() {
		if r.OK && (r.MoveDataTransfers != 3 || r.AdminMsgs != 9) {
			bad = append(bad, fmt.Sprintf("§6 bill of %v %d→%d: %d transfers and %d admin messages, want 3 and 9",
				r.PID, r.From, r.To, r.MoveDataTransfers, r.AdminMsgs))
		}
	}
	return bad
}

// liveCopies lists the machines holding the Recorder as a process, not a
// forwarding address.
func (s *scene) liveCopies() []int {
	var at []int
	for m := 1; m <= 3; m++ {
		if info, ok := s.c.Kernel(m).Process(s.rec); ok && info.State != kernel.StateForwarder {
			at = append(at, m)
		}
	}
	return at
}

// leaf is one explored schedule's outcome: its leaf check, and what the
// explorer's questions about the source's Abort, the destination's second
// Established and duplicate drops read.
type leaf struct {
	sch      schedule
	bad      []string
	aborted  bool   // m1 sent an Abort
	forged   bool   // ... and still committed to m2's copy: the message FuzzKernelAdmin's forged exempts
	reasked  bool   // m2's watchdog sent Established again, for m1 to decide
	rejected uint64 // administrative messages dropped by the peer rule, the legal-at column or as a duplicate Ask
}

func (s *scene) leaf(sch schedule) leaf {
	l := leaf{sch: sch, bad: s.verdict()}
	l.aborted = s.c.Kernel(1).Stats().AdminSent[msg.OpMigrateAbort] > 0
	info, ok := s.c.Kernel(1).Process(s.rec)
	l.forged = l.aborted && ok && info.State == kernel.StateForwarder
	l.reasked = s.c.Kernel(2).Stats().AdminSent[msg.OpMigrateEstablished] > 1
	for m := 1; m <= 3; m++ {
		l.rejected += s.c.Kernel(m).Stats().AdminRejected
	}
	return l
}

// explore plays every candidate fault at every event of base's trajectory
// after base's last fault, returning the leaves that took effect and the
// number of schedules tried.
func explore(t testing.TB, base schedule) (leaves []leaf, tried int) {
	first, evs := trajectory(t, base)
	for i, tr := range evs {
		for _, f := range candidates(first+i, tr) {
			sch := append(append(schedule{}, base...), f)
			tried++
			if s, ok := play(t, sch); ok {
				leaves = append(leaves, s.leaf(sch))
			}
		}
	}
	return leaves, tried
}

// checkLeaves fails every leaf that fails its check, returning how many
// did.
func checkLeaves(t *testing.T, leaves []leaf) (flagged int) {
	t.Helper()
	for _, l := range leaves {
		if len(l.bad) > 0 {
			flagged++
			t.Errorf("%v: leaf check %q", l.sch, l.bad)
		}
		if l.forged {
			t.Errorf("%v: m1 sent an Abort and committed", l.sch)
		}
	}
	return flagged
}

// TestExploreBudget1: every single fault at every event of the scene that
// sends a frame. Each one that takes effect leaves a cluster that passes
// every leaf check.
func TestExploreBudget1(t *testing.T) {
	base, _ := play(t, nil)
	if bad := base.verdict(); len(bad) != 0 {
		t.Fatalf("the fault-free scene fails its leaf check: %v", bad)
	}
	leaves, tried := explore(t, nil)
	if len(leaves) == 0 {
		t.Fatal("no fault took effect")
	}
	flagged := checkLeaves(t, leaves)
	per := map[action]int{}
	for _, l := range leaves {
		per[l.sch[0].act]++
	}
	_, evs := trajectory(t, nil)
	t.Logf("%d events, %d schedules tried, %d took effect (drop %d, dup %d, reorder %d, late %d), %d flagged",
		len(evs), tried, len(leaves), per[drop], per[dup], per[reorder], per[late], flagged)
}

// namedSchedule is a schedule with the outcome its leaf must show.
type namedSchedule struct {
	name  string
	sch   schedule
	check func(t *testing.T, s *scene)
}

// landmark plays prefix and returns the number of the first event after
// which done holds: where a named schedule arms its fault, found by what the
// scene does rather than written down as a number.
func landmark(t testing.TB, prefix schedule, done func(*scene) bool) int {
	s := newScene(t)
	for _, f := range prefix {
		if !s.inject(f) {
			t.Fatalf("%v injected nothing", prefix)
		}
	}
	for !done(s) {
		s.fire()
	}
	return s.step - 1
}

// sent reports whether machine m has sent op n times.
func sent(m int, op msg.Op, n uint64) func(*scene) bool {
	return func(s *scene) bool { return s.c.Kernel(m).Stats().AdminSent[op] == n }
}

// namedSchedules are the races the kernel's hand-forced tests used to build,
// and the counterexamples the explorer found, each as the schedule that
// reaches it in the scene.
func namedSchedules(t testing.TB) []namedSchedule {
	ask := landmark(t, nil, sent(1, msg.OpMigrateAsk, 1))
	// The Ask lands on m2 (2.605 ms), which sends the Accept and then the
	// resident region's MoveDataReq in the same event.
	accept := landmark(t, nil, sent(2, msg.OpMigrateAccept, 1))
	// The program region lands on m2 (6.177 ms), which acks it and sends
	// Established in the same event.
	est := landmark(t, nil, sent(2, msg.OpMigrateEstablished, 1))
	lost := fault{est, drop, 1, 2}
	// With Established lost, m1's watchdog fires (30.005613 s), restores
	// its copy and sends the Abort.
	abort := landmark(t, schedule{lost}, sent(1, msg.OpMigrateAbort, 1))
	// m1 receives Established, commits and sends message 8 (and message 9
	// to itself, the requester) in the same event.
	cleanup := landmark(t, nil, sent(1, msg.OpMigrateCleanup, 1))
	return []namedSchedule{
		{
			// Message 7 is lost, so the source's watchdog restores its copy
			// and sends an Abort, held past the destination's watchdog.
			// That watchdog sends Established again; m1, holding the
			// restored copy, answers with a second Abort, and m2 discards
			// its copy. The late Abort then finds no half on m2 and is
			// ignored.
			name: "late Abort finds the copy discarded",
			sch:  schedule{lost, {abort, late, 1, 2}},
			check: func(t *testing.T, s *scene) {
				if at := s.liveCopies(); len(at) != 1 || at[0] != 1 {
					t.Fatalf("live copies on %v, want the restored one on m1", at)
				}
				if _, ok := s.c.Kernel(2).Process(s.rec); ok {
					t.Fatal("m2 kept a record of the process it discarded")
				}
				if n := s.c.Kernel(2).Stats().MigrationsFailed; n != 1 {
					t.Fatalf("m2 MigrationsFailed = %d, want exactly 1: the late Abort is ignored", n)
				}
				if n := s.c.Kernel(1).Stats().AdminSent[msg.OpMigrateAbort]; n != 2 {
					t.Fatalf("m1 sent %d aborts, want its watchdog's and its answer to the second Established", n)
				}
				// The survivor still works.
				if err := s.c.Kernel(1).GiveMessage(s.rec, addr.KernelAddr(3), []byte{99, 0, 0, 0}); err != nil {
					t.Fatal(err)
				}
				s.c.Run()
				if b, _ := s.c.Kernel(1).BodyOf(s.rec); b.(*workload.Recorder).Seen[99] != 1 {
					t.Fatal("the survivor on m1 did not take a message after the abort")
				}
			},
		},
		{
			// The destination's Established arrives twice: the first
			// commits the source, the second finds a forwarding address to
			// its sender and draws message 8 again rather than an Abort of
			// the only copy; m2, committed by the first, ignores it. This
			// is the late half of TestEarlyEstablishedLeavesOneCopy,
			// reached by a real schedule.
			name: "duplicate Established after commit",
			sch:  schedule{{est, dup, 2, 1}},
			check: func(t *testing.T, s *scene) {
				if at := s.liveCopies(); len(at) != 1 || at[0] != 2 {
					t.Fatalf("live copies on %v, want one on m2", at)
				}
				if n := s.c.Kernel(1).Stats().AdminSent[msg.OpMigrateAbort]; n != 0 {
					t.Fatalf("m1 answered the duplicate with %d aborts", n)
				}
				if n := s.c.Kernel(1).Stats().AdminSent[msg.OpMigrateCleanup]; n != 2 {
					t.Fatalf("m1 sent %d cleanups, want 2", n)
				}
			},
		},
		{
			// Message 8 is lost. m1 is already a forwarder, so m2's
			// watchdog asks again, and the forwarder to the sender answers
			// with message 8 again, billed to no ledger record: m2 commits
			// and the migration's bill still reads 3 transfers and 9
			// administrative messages.
			name: "lost Cleanup: the forwarder repeats message 8",
			sch:  schedule{{cleanup, drop, 1, 2}},
			check: func(t *testing.T, s *scene) {
				if at := s.liveCopies(); len(at) != 1 || at[0] != 2 {
					t.Fatalf("live copies on %v, want one on m2", at)
				}
				st1, st2 := s.c.Kernel(1).Stats(), s.c.Kernel(2).Stats()
				if st1.AdminSent[msg.OpMigrateCleanup] != 2 || st2.AdminSent[msg.OpMigrateEstablished] != 2 {
					t.Fatalf("m1 sent %d cleanups and m2 %d Establisheds, want 2 and 2",
						st1.AdminSent[msg.OpMigrateCleanup], st2.AdminSent[msg.OpMigrateEstablished])
				}
				recs := s.c.Ledger().Records()
				if len(recs) != 1 || !recs[0].OK || recs[0].MoveDataTransfers != 3 || recs[0].AdminMsgs != 9 {
					t.Fatalf("ledger %+v, want one completed migration billed 3 transfers and 9 admin messages", recs)
				}
			},
		},
		{
			// A second Ask finds m2's half already open with the same
			// source: it is dropped, counted AdminRejected, and billed to
			// no migration.
			name: "duplicate Ask",
			sch:  schedule{{ask, dup, 1, 2}},
			check: func(t *testing.T, s *scene) {
				if n := s.c.Kernel(2).Stats().AdminRejected; n != 1 {
					t.Fatalf("m2 AdminRejected = %d, want 1", n)
				}
			},
		},
		{
			// The Accept is legal at every step of the source half, so a
			// second copy of it is believed, but it is billed once per
			// attempt — when the resident region's MoveDataReq is served —
			// so the completed migration still reads 9 administrative
			// messages. (The duplicate MoveDataReq the same fault sends is
			// dropped, AdminRejected, and not billed.) Billed by arrival,
			// this read 10: a counterexample the explorer found.
			name: "duplicate Accept is billed once",
			sch:  schedule{{accept, dup, 2, 1}},
			check: func(t *testing.T, s *scene) {
				if at := s.liveCopies(); len(at) != 1 || at[0] != 2 {
					t.Fatalf("live copies on %v, want one on m2", at)
				}
				recs := s.c.Ledger().Records()
				if len(recs) != 1 || !recs[0].OK || recs[0].AdminMsgs != 9 {
					t.Fatalf("ledger %+v, want one completed migration billed 9 admin messages", recs)
				}
			},
		},
		{
			// The source needs no Accept to serve the resident region's
			// MoveDataReq, so an Accept held past the migration lands on
			// the forwarding address and is ignored. Its 6 bytes were
			// billed with that first pull, so the migration reads 9
			// administrative messages. Billed by arrival, this read 8: a
			// counterexample the explorer found, the lossless form of a
			// retransmitted Accept.
			name: "late Accept lands on the forwarding address",
			sch:  schedule{{accept, late, 2, 1}},
			check: func(t *testing.T, s *scene) {
				if at := s.liveCopies(); len(at) != 1 || at[0] != 2 {
					t.Fatalf("live copies on %v, want one on m2", at)
				}
				if info, ok := s.c.Kernel(1).Process(s.rec); !ok || info.State != kernel.StateForwarder || info.FwdTo != 2 {
					t.Fatalf("m1 holds %+v (%v), want a forwarding address to m2", info, ok)
				}
				recs := s.c.Ledger().Records()
				if len(recs) != 1 || !recs[0].OK || recs[0].AdminMsgs != 9 {
					t.Fatalf("ledger %+v, want one completed migration billed 9 admin messages", recs)
				}
			},
		},
		{
			// m2's Established is lost, and so is the Abort m1's watchdog
			// sends when it restores its copy. m2 does not commit on its
			// own watchdog: it sends Established again, m1, holding the
			// restored copy, answers with a second Abort, and m2 discards
			// its copy. (Until the destination asked instead of committing,
			// this schedule forked the process: a pinned counterexample.)
			name: "Established and Abort lost: the destination asks again",
			sch:  schedule{lost, {abort, drop, 1, 2}},
			check: func(t *testing.T, s *scene) {
				if at := s.liveCopies(); len(at) != 1 || at[0] != 1 {
					t.Fatalf("live copies on %v, want the restored one on m1", at)
				}
				st1, st2 := s.c.Kernel(1).Stats(), s.c.Kernel(2).Stats()
				if st2.AdminSent[msg.OpMigrateEstablished] != 2 || st1.AdminSent[msg.OpMigrateAbort] != 2 {
					t.Fatalf("m2 sent %d Establisheds and m1 %d aborts, want 2 and 2",
						st2.AdminSent[msg.OpMigrateEstablished], st1.AdminSent[msg.OpMigrateAbort])
				}
				if st2.MigrationsFailed != 1 {
					t.Fatalf("m2 MigrationsFailed = %d, want 1", st2.MigrationsFailed)
				}
			},
		},
	}
}

// TestNamedSchedules replays each named schedule: its leaf check passes,
// and its own outcome holds.
func TestNamedSchedules(t *testing.T) {
	for _, n := range namedSchedules(t) {
		t.Run(n.name, func(t *testing.T) {
			s, ok := play(t, n.sch)
			if !ok {
				t.Fatalf("%v injected nothing", n.sch)
			}
			if bad := s.verdict(); len(bad) > 0 {
				t.Fatalf("%v: leaf check %q", n.sch, bad)
			}
			n.check(t, s)
		})
	}
}
