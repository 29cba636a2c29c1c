package kernel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// A fired timer's normal path queues the kernel's mark with no envelope
// drawn (pending.hop). Every case the mark cannot stand for takes the
// envelope path of any other message. These tests hold both to what a
// delivery did when every fire drew an envelope: the pinned strings were
// read from that code.

// hopProbe arms one timer at its first step (none if Delay is 0), Delay µs
// ahead with tag Tag, and exits there if Exit is set; otherwise it records
// every delivery: when, where, its tag and its sender. Migratable.
type hopProbe struct {
	Delay sim.Time
	Tag   uint16
	Exit  bool
	Armed bool
	Got   []string
}

func (b *hopProbe) Kind() string { return "hop-probe" }

func (b *hopProbe) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if !b.Armed {
		b.Armed = true
		if b.Delay > 0 {
			ctx.SetTimer(b.Delay, b.Tag)
		}
		if b.Exit {
			return 0, proc.Status{State: proc.Exited}
		}
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		b.Got = append(b.Got, fmt.Sprintf("%v@m%d op=%v tag=%d from=%v", ctx.Now(), ctx.Machine(), d.Op, d.Xfer, d.From))
	}
}

func (b *hopProbe) Snapshot() ([]byte, error) { return proc.Snapshot(b) }
func (b *hopProbe) Restore(data []byte) error { return proc.Restore(b, data) }

// hopScene is two observed kernels (so each keeps its delivery-latency
// histogram) and the probes spawned on m1.
type hopScene struct {
	eng    *sim.Engine
	k1, k2 *Kernel
}

func newHopScene() *hopScene {
	eng := sim.NewEngine(5)
	nw := netw.New(eng, netw.Config{})
	reg := proc.NewRegistry()
	reg.Register("hop-probe", func() proc.Body { return &hopProbe{} })
	cfg := Config{Registry: reg, Machines: []addr.MachineID{1, 2}}
	s := &hopScene{eng: eng, k1: New(1, eng, nw, cfg), k2: New(2, eng, nw, cfg)}
	s.k1.SetObs(obs.NewRegistry(), nil)
	s.k2.SetObs(obs.NewRegistry(), nil)
	return s
}

func (s *hopScene) spawn(t *testing.T, b *hopProbe) addr.ProcessID {
	t.Helper()
	pid, err := s.k1.Spawn(SpawnSpec{Body: b})
	if err != nil {
		t.Fatal(err)
	}
	return pid
}

// queueOf renders pid's record on k and what waits on its queue: a mark or
// an envelope, with its tag and, for an envelope, its SentAt stamp.
func queueOf(k *Kernel, pid addr.ProcessID) string {
	p := k.lookup(pid)
	if p == nil {
		return "no record"
	}
	out := []string{p.state.String()}
	for i := 0; i < p.queue.Len(); i++ {
		m := p.queue.at(i)
		switch {
		case m.IsMark():
			out = append(out, fmt.Sprintf("mark tag=%d", m.Body[0]))
		case m.Op == msg.OpTimer:
			out = append(out, fmt.Sprintf("envelope tag=%d sent=%v", m.Body[0], m.SentAt))
		default:
			out = append(out, fmt.Sprintf("%v/%v", m.Kind, m.Op))
		}
	}
	return strings.Join(out, " ")
}

// statsOf renders every nonzero counter of k's Stats (AdminSent as its
// sum) and its delivery-latency histogram's count and sum, in µs.
func statsOf(k *Kernel) string {
	st := k.Stats()
	v := reflect.ValueOf(st)
	var out []string
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		var n uint64
		switch f.Kind() {
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				n += f.Index(j).Uint()
			}
		case reflect.Uint64:
			n = f.Uint()
		case reflect.Int64:
			n = uint64(f.Int())
		}
		if n != 0 {
			out = append(out, fmt.Sprintf("%s=%d", name, n))
		}
	}
	lat := k.hLat.Metric("")
	out = append(out, fmt.Sprintf("lat=%d/%d", lat.Count, lat.Sum))
	return fmt.Sprintf("m%d[%s]", k.machine, strings.Join(out, " "))
}

// armTimerFor sets a timer on k for pid, as the process's own SetTimer on
// k would have: the pending record names only the pid and the tag.
func armTimerFor(k *Kernel, pid addr.ProcessID, d sim.Time, tag uint16) {
	(&procCtx{k: k, p: &Process{id: pid}}).SetTimer(d, tag)
}

// TestTimerHopFallbacks: the local hop of a fired timer, in each case, as
// the probe, the queue and both kernels' counters and latency histograms
// see it at the hop and at the end. The normal path ("enqueued") queues
// the mark; every other row takes the envelope path, with the envelope
// stamped at the fire, so a latency counted after a forward or a hold
// counts from the fire.
func TestTimerHopFallbacks(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run drives the scene and returns the queue at the hop.
		run   func(t *testing.T, s *hopScene) (pid addr.ProcessID, atHop string)
		atHop string
		end   []string // m1's and m2's counters, then the probe's deliveries
	}{{
		// The probe is suspended, so the timer is still queued at the hop.
		name: "enqueued",
		run: func(t *testing.T, s *hopScene) (addr.ProcessID, string) {
			pid := s.spawn(t, &hopProbe{Delay: 1000, Tag: 1})
			s.eng.RunUntil(500)
			s.k1.GiveControl(pid, msg.OpSuspend, nil)
			s.eng.RunUntil(1000 + LocalLatency)
			q := queueOf(s.k1, pid)
			s.k1.GiveControl(pid, msg.OpResume, nil)
			return pid, q
		},
		atHop: "suspended mark tag=1",
		end: []string{
			"m1[Spawned=1 Slices=2 CtxSwitches=2 CPUBusy=250 MsgsRouted=3 MsgsEnqueued=1 lat=1/30]",
			"m2[lat=0/0]",
			"0.001060s@m1 op=timer tag=1 from=kernel(m1)@m1",
		},
	}, {
		// The kernel's mark stands for tag 1 (the first probe's timer);
		// the second probe's tag 2 waits as its own envelope.
		name: "second-tag",
		run: func(t *testing.T, s *hopScene) (addr.ProcessID, string) {
			s.spawn(t, &hopProbe{Delay: 1000, Tag: 1})
			pid := s.spawn(t, &hopProbe{Delay: 2000, Tag: 2})
			s.eng.RunUntil(500)
			s.k1.GiveControl(pid, msg.OpSuspend, nil)
			s.eng.RunUntil(2500) // its first slice armed it after the first probe's
			q := queueOf(s.k1, pid)
			s.k1.GiveControl(pid, msg.OpResume, nil)
			return pid, q
		},
		atHop: "suspended envelope tag=2 sent=0.002150s",
		end: []string{
			"m1[Spawned=2 Slices=4 CtxSwitches=4 CPUBusy=500 MsgsRouted=4 MsgsEnqueued=2 lat=2/60]",
			"m2[lat=0/0]",
			"0.002530s@m1 op=timer tag=2 from=kernel(m1)@m1",
		},
	}, {
		// The probe left for m2 long before its timer fired on m1: m1's
		// forwarding address sends the timer on.
		name: "migrated-away",
		run: func(t *testing.T, s *hopScene) (addr.ProcessID, string) {
			pid := s.spawn(t, &hopProbe{Delay: 20_000, Tag: 1})
			s.eng.RunUntil(100)
			s.k1.RequestMigrationOf(addr.At(pid, 1), 2)
			s.eng.RunUntil(20_000 + LocalLatency)
			return pid, queueOf(s.k1, pid)
		},
		atHop: "no record",
		end: []string{
			"m1[Spawned=1 Slices=1 CtxSwitches=1 CPUBusy=100 MsgsRouted=9 Forwarded=1 ForwardersInstalled=1 ForwarderBytes=8 MigrationsOut=1 AdminSent=4 AdminBytes=29 DataPacketsSent=3 DataBytesSent=69 AcksReceived=3 lat=0/0]",
			"m2[Slices=1 CtxSwitches=1 CPUBusy=150 MsgsRouted=8 MsgsEnqueued=1 MigrationsIn=1 AdminSent=5 AdminBytes=33 AcksSent=3 lat=1/584]",
			"0.020584s@m2 op=timer tag=1 from=kernel(m1)@m1",
		},
	}, {
		// The probe froze for a migration to m2 before its timer fired:
		// the timer is held on its queue and resent by step 6.
		name: "in-migration",
		run: func(t *testing.T, s *hopScene) (addr.ProcessID, string) {
			pid := s.spawn(t, &hopProbe{Delay: 1000, Tag: 1})
			s.eng.RunUntil(900)
			s.k1.RequestMigrationOf(addr.At(pid, 1), 2)
			s.eng.RunUntil(1000 + LocalLatency)
			return pid, queueOf(s.k1, pid)
		},
		atHop: "in-migration envelope tag=1 sent=0.001000s",
		end: []string{
			"m1[Spawned=1 Slices=1 CtxSwitches=1 CPUBusy=100 MsgsRouted=9 MsgsHeld=1 ForwardedPending=1 ForwardersInstalled=1 ForwarderBytes=8 MigrationsOut=1 AdminSent=4 AdminBytes=29 DataPacketsSent=3 DataBytesSent=68 AcksReceived=3 lat=0/0]",
			"m2[Slices=1 CtxSwitches=1 CPUBusy=150 MsgsRouted=8 MsgsEnqueued=1 MsgsHeld=1 MigrationsIn=1 AdminSent=5 AdminBytes=33 AcksSent=3 lat=1/5211]",
			"0.006211s@m2 op=timer tag=1 from=kernel(m1)@m1",
		},
	}, {
		// The probe went to m2 and is on its way back: a timer it left on
		// m1 fires while m1's record of it is incoming, and is held there.
		name: "incoming",
		run: func(t *testing.T, s *hopScene) (addr.ProcessID, string) {
			pid := s.spawn(t, &hopProbe{})
			s.eng.RunUntil(100)
			s.k1.RequestMigrationOf(addr.At(pid, 1), 2)
			s.eng.Run()
			s.k2.RequestMigrationOf(addr.At(pid, 2), 1)
			for p := s.k1.lookup(pid); p == nil || p.state != StateIncoming; p = s.k1.lookup(pid) {
				if !s.eng.Step() {
					t.Fatal("the return migration never made m1's record incoming")
				}
			}
			fire := s.eng.Now() + 1
			armTimerFor(s.k1, pid, 1, 3)
			s.eng.RunUntil(fire + LocalLatency)
			return pid, queueOf(s.k1, pid)
		},
		atHop: "incoming envelope tag=3 sent=0.006014s",
		end: []string{
			"m1[Spawned=1 Slices=2 CtxSwitches=2 CPUBusy=250 MsgsRouted=16 MsgsEnqueued=1 MsgsHeld=1 ForwardersInstalled=1 MigrationsOut=1 MigrationsIn=1 AdminSent=9 AdminBytes=62 DataPacketsSent=3 DataBytesSent=67 AcksSent=3 AcksReceived=3 lat=1/4702]",
			"m2[MsgsRouted=15 ForwardersInstalled=1 ForwarderBytes=8 MigrationsOut=1 MigrationsIn=1 AdminSent=9 AdminBytes=62 DataPacketsSent=3 DataBytesSent=67 AcksSent=3 AcksReceived=3 lat=0/0]",
			"0.010716s@m1 op=timer tag=3 from=kernel(m1)@m1",
		},
	}, {
		// m1 crashes between the fire and the hop: the timer dies with
		// the machine, counted.
		name: "crash-before-hop",
		run: func(t *testing.T, s *hopScene) (addr.ProcessID, string) {
			pid := s.spawn(t, &hopProbe{Delay: 1000, Tag: 1})
			s.eng.RunUntil(1000)
			s.k1.Crash()
			s.eng.RunUntil(1000 + LocalLatency)
			q := queueOf(s.k1, pid)
			if err := s.k1.Restart(); err != nil {
				t.Fatal(err)
			}
			return pid, q
		},
		atHop: "waiting",
		end: []string{
			"m1[Spawned=1 Slices=1 CtxSwitches=1 CPUBusy=100 MsgsRouted=1 Restarts=1 CrashLostProcs=1 DroppedWhileCrashed=1 lat=0/0]",
			"m2[lat=0/0]",
		},
	}, {
		// m1 is down when the timer fires.
		name: "crash-before-fire",
		run: func(t *testing.T, s *hopScene) (addr.ProcessID, string) {
			pid := s.spawn(t, &hopProbe{Delay: 1000, Tag: 1})
			s.eng.RunUntil(900)
			s.k1.Crash()
			s.eng.RunUntil(1000 + LocalLatency)
			q := queueOf(s.k1, pid)
			if err := s.k1.Restart(); err != nil {
				t.Fatal(err)
			}
			return pid, q
		},
		atHop: "waiting",
		end: []string{
			"m1[Spawned=1 Slices=1 CtxSwitches=1 CPUBusy=100 Restarts=1 CrashLostProcs=1 DroppedWhileCrashed=1 lat=0/0]",
			"m2[lat=0/0]",
		},
	}, {
		// The probe exited right after arming: the timer is a dead letter.
		name: "exited",
		run: func(t *testing.T, s *hopScene) (addr.ProcessID, string) {
			pid := s.spawn(t, &hopProbe{Delay: 1000, Tag: 1, Exit: true})
			s.eng.RunUntil(1000 + LocalLatency)
			return pid, queueOf(s.k1, pid)
		},
		atHop: "no record",
		end: []string{
			"m1[Spawned=1 Exited=1 Slices=1 CtxSwitches=1 CPUBusy=100 MsgsRouted=1 DeadLetters=1 lat=0/0]",
			"m2[lat=0/0]",
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newHopScene()
			pid, atHop := tc.run(t, s)
			s.eng.Run()
			end := []string{statsOf(s.k1), statsOf(s.k2)}
			for _, k := range []*Kernel{s.k1, s.k2} {
				if b, ok := k.BodyOf(pid); ok {
					end = append(end, b.(*hopProbe).Got...)
				}
				if news, free, held := k.PoolStats(); news != free+held || held != 0 {
					t.Errorf("m%d pool: %d made, %d free, %d held; want all free", k.machine, news, free, held)
				}
			}
			t.Logf("at the hop: %q", atHop)
			for _, l := range end {
				t.Logf("end: %q", l)
			}
			if atHop != tc.atHop {
				t.Errorf("at the hop: %q, want %q", atHop, tc.atHop)
			}
			if !reflect.DeepEqual(end, tc.end) {
				t.Errorf("end:\n  %q\nwant\n  %q", end, tc.end)
			}
		})
	}
}

// TestTimerBurstDrawsNoEnvelope: 20 000 jobs' timers fire at one instant on
// a bare kernel, and the jobs exit. No fire draws an envelope, so the pool
// constructs none (when each fire drew one, the burst grew the pool to one
// envelope a fire, kept for good), and every pending record the timers
// rode, fire and hop alike, is back on the free chain at the end.
func TestTimerBurstDrawsNoEnvelope(t *testing.T) {
	const n = 20_000
	const at = sim.Time(10_000_000)
	eng := sim.NewEngine(1)
	k := New(1, eng, netw.New(eng, netw.Config{}), Config{})
	bodies := make([]workload.Job, n)
	for i := range bodies {
		// Job i's first slice, which arms its timer, runs at 150·i µs.
		bodies[i].Service = at - sim.Time(150*i)
		if _, err := k.Spawn(SpawnSpec{Body: &bodies[i]}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(at - 1)
	if got := k.Stats().MsgsRouted; got != 0 {
		t.Fatalf("%d timers fired before %v, want none", got, at)
	}
	eng.RunUntil(at)
	if got := k.Stats().MsgsRouted; got != n {
		t.Fatalf("%d of %d timers fired at %v", got, n, at)
	}
	eng.Run()
	if st := k.Stats(); st.Exited != n || st.MsgsEnqueued != n {
		t.Fatalf("%d exited, %d enqueued; want %d each", st.Exited, st.MsgsEnqueued, n)
	}
	if news, free, held := k.PoolStats(); news != 0 {
		t.Errorf("pool: %d made, %d free, %d held; want none made", news, free, held)
	}
	if got := k.pendingRecs(); got != n {
		t.Errorf("%d pending records on the free chain, want the %d the timers rode", got, n)
	}
}
