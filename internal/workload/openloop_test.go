package workload

import (
	"testing"

	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/proctest"
	"demosmp/internal/sim"
)

func drain(a Arrivals) []sim.Time {
	var out []sim.Time
	for {
		at, _, ok := a.Next()
		if !ok {
			return out
		}
		out = append(out, at)
	}
}

func TestArrivalsDeterministicPerMachine(t *testing.T) {
	cfg := OpenLoop{Seed: 42, MeanGap: 500, PerMachine: 50}
	a := drain(NewArrivals(&cfg, 3))
	b := drain(NewArrivals(&cfg, 3))
	if len(a) != 50 {
		t.Fatalf("emitted %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream not reproducible at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Different machines: different streams.
	c := drain(NewArrivals(&cfg, 4))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("machines 3 and 4 share a stream")
	}
}

func TestHotMachineSkew(t *testing.T) {
	cfg := OpenLoop{Seed: 7, MeanGap: 1000, PerMachine: 200, HotEvery: 4, HotFactor: 3}
	hot := drain(NewArrivals(&cfg, 4))  // 4 % 4 == 0: hot
	cold := drain(NewArrivals(&cfg, 5)) // nominal
	// Same job count in ~1/3 the span: the hot stream must finish much
	// earlier (allow slack for variance).
	if hot[len(hot)-1]*2 >= cold[len(cold)-1] {
		t.Fatalf("hot machine not hot: hot ends %d, cold ends %d",
			hot[len(hot)-1], cold[len(cold)-1])
	}
}

func TestDiurnalWaveModulatesRate(t *testing.T) {
	cfg := OpenLoop{Seed: 11, MeanGap: 1000, PerMachine: 2000,
		WaveAmp: 0.8, WavePeriod: 1_000_000}
	a := NewArrivals(&cfg, 1)
	// Count arrivals landing in the peak half vs the trough half of each
	// period. With +80% swing the peak half must see clearly more.
	peak, trough := 0, 0
	for {
		at, _, ok := a.Next()
		if !ok {
			break
		}
		if at%cfg.WavePeriod < cfg.WavePeriod/2 {
			peak++
		} else {
			trough++
		}
	}
	if peak <= trough*2 {
		t.Fatalf("no wave: peak-half %d vs trough-half %d", peak, trough)
	}
}

func TestWaveSpreadStaggersPhase(t *testing.T) {
	cfg := OpenLoop{Seed: 11, MeanGap: 1000, PerMachine: 1000,
		WaveAmp: 0.8, WavePeriod: 1_000_000, WaveSpread: 2}
	count := func(machine int) (peak int) {
		a := NewArrivals(&cfg, machine)
		for {
			at, _, ok := a.Next()
			if !ok {
				return
			}
			if at%cfg.WavePeriod < cfg.WavePeriod/2 {
				peak++
			}
		}
	}
	// Machine 0 peaks in the first half-period; machine 1 is π out of
	// phase and peaks in the second.
	p0, p1 := count(0), count(1)
	if p0 <= 500 || p1 >= 500 {
		t.Fatalf("phases not staggered: m0 peak-half %d, m1 peak-half %d", p0, p1)
	}
}

func TestSpinnerBurnsAndExits(t *testing.T) {
	s := &Spinner{Work: 2500}
	ctx := proctest.New()
	var spent int
	for i := 0; ; i++ {
		cost, st := s.Step(ctx, 1000)
		spent += cost
		if st.State == proc.Exited {
			break
		}
		if st.State != proc.Runnable {
			t.Fatalf("state %v", st.State)
		}
		if i > 10 {
			t.Fatal("spinner never exits")
		}
	}
	if spent != 2500 {
		t.Fatalf("burned %d instructions, want 2500", spent)
	}
	// Snapshot mid-burn restores the remaining work.
	s2 := &Spinner{Work: 999}
	snap, err := s2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s3 := &Spinner{}
	if err := s3.Restore(snap); err != nil || s3.Work != 999 {
		t.Fatalf("restore: %v work=%d", err, s3.Work)
	}
}

// TestJobIsStateless steps one Job body as two processes at once, through
// a fake context each: a step that finds its queue empty arms one timer of
// the service time and blocks, a step that receives the timer exits with
// the service time as its code, and nothing a step does writes the body.
// Snapshot and Restore round-trip Service alone.
func TestJobIsStateless(t *testing.T) {
	const service = 5000
	job := &Job{Service: service}
	a, b := proctest.New(), proctest.New()
	for _, c := range []*proctest.Ctx{a, b} {
		if _, st := job.Step(c, 500); st.State != proc.Blocked || len(c.Timers) != 1 || c.Timers[0].D != service {
			t.Fatalf("first step: %+v, timers %+v; want blocked on one %d µs timer", st, c.Timers, service)
		}
	}
	a.Push(proc.Delivery{Op: msg.OpTimer})
	if _, st := job.Step(a, 500); st.State != proc.Exited || st.ExitCode != service || len(a.Timers) != 1 {
		t.Fatalf("step on the fired timer: %+v, timers %+v; want an exit with code %d and no new timer", st, a.Timers, service)
	}
	if *job != (Job{Service: service}) {
		t.Fatalf("stepping changed the body to %+v", *job)
	}
	if _, st := job.Step(b, 500); st.State != proc.Blocked || len(b.Timers) != 2 {
		t.Fatalf("the other process's next empty step: %+v, timers %+v; want a second arm (only a spawn or a Ready restart steps an empty queue)", st, b.Timers)
	}
	zero := &Job{}
	zero.Step(proctest.New(), 500)
	if *zero != (Job{}) {
		t.Fatalf("a zero-service job wrote its clamp into the body: %+v", *zero)
	}
	data, err := job.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var back Job
	if err := back.Restore(data); err != nil || back != *job {
		t.Fatalf("Restore(Snapshot()) = %+v, %v; want %+v", back, err, *job)
	}
}
