package policy

import (
	"reflect"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

func machines(n int) []addr.MachineID {
	out := make([]addr.MachineID, n)
	for i := range out {
		out[i] = addr.MachineID(i + 1)
	}
	return out
}

func TestCollectorSweepOnRoundClose(t *testing.T) {
	c := NewCollector(machines(3), 0)
	if c.Observe(10, load(1, 50)) || c.Observe(11, load(2, 60)) {
		t.Fatal("swept before the round closed")
	}
	if !c.Observe(12, load(3, 70)) {
		t.Fatal("highest machine must close the round")
	}
	if c.Sweeps() != 1 {
		t.Fatalf("sweeps = %d", c.Sweeps())
	}
	v := c.View(12)
	if len(v) != 3 || v[0].Machine != 1 || v[1].Machine != 2 || v[2].Machine != 3 {
		t.Fatalf("view: %+v", v)
	}
	// Next round behaves identically.
	if c.Observe(20, load(1, 10)) {
		t.Fatal("new round swept early")
	}
	if !c.Observe(22, load(3, 10)) || c.Sweeps() != 2 {
		t.Fatal("second round close")
	}
}

func TestCollectorWrapDetection(t *testing.T) {
	// Machine 3 (the closer) crashed: rounds must still close when some
	// machine reports twice.
	c := NewCollector(machines(3), 0)
	c.Observe(10, load(1, 50))
	c.Observe(11, load(2, 60))
	// m3 never reports; m1 starts the next round.
	if !c.Observe(20, load(1, 55)) {
		t.Fatal("repeat must close the stale round")
	}
	if c.Sweeps() != 1 {
		t.Fatalf("sweeps = %d", c.Sweeps())
	}
	// The wrap started a fresh round containing m1 only; m2's repeat must
	// not sweep again immediately.
	if c.Observe(21, load(2, 61)) {
		t.Fatal("m2 is first-time in the new round")
	}
	if !c.Observe(30, load(1, 56)) {
		t.Fatal("second wrap must sweep")
	}
}

func TestCollectorViewLatestAndAge(t *testing.T) {
	c := NewCollector(machines(2), 100)
	c.Observe(10, load(1, 50))
	c.Observe(11, load(2, 60))
	c.Observe(50, load(1, 80))
	v := c.View(60)
	if len(v) != 2 || v[0].CPUPercent != 80 {
		t.Fatalf("view must hold the freshest sample: %+v", v)
	}
	// At t=150, m2's sample (t=11) is past MaxAge=100; m1's (t=50) is not.
	v = c.View(150)
	if len(v) != 1 || v[0].Machine != 1 {
		t.Fatalf("stale sample survived: %+v", v)
	}
}

func TestCollectorSingleMachine(t *testing.T) {
	c := NewCollector(machines(1), 0)
	for i := 0; i < 3; i++ {
		if !c.Observe(10, load(1, 50)) {
			t.Fatal("single-machine rounds close on every report")
		}
	}
	if c.Sweeps() != 3 {
		t.Fatalf("sweeps = %d", c.Sweeps())
	}
}

func TestCollectorDeterministicView(t *testing.T) {
	// Same report sequence → byte-identical views, regardless of map
	// internals.
	run := func() []msg.LoadReport {
		c := NewCollector(machines(5), 0)
		for m := 5; m >= 1; m-- {
			c.Observe(10, load(addr.MachineID(m), uint8(m*10)))
		}
		return c.View(10)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("views differ:\n%+v\n%+v", a, b)
	}
}

// roundReports is a deliberately imbalanced n-machine snapshot: queue
// depths 0..6, CPU 30..99%, memory 1..17 MB, and chatty procs whose top
// peers clear the §6 payback gate, so every sub-policy has real work.
func roundReports(n int) []msg.LoadReport {
	reports := make([]msg.LoadReport, n)
	for i := range reports {
		m := addr.MachineID(i + 1)
		rep := msg.LoadReport{
			Machine: m, Ready: uint16(i % 7), ProcCount: 8,
			CPUPercent: uint8(30 + (i*13)%70),
			MemUsedKB:  uint32(1024 + i*64),
		}
		for p := 0; p < 8; p++ {
			rep.Procs = append(rep.Procs, msg.ProcLoad{
				PID:         addr.ProcessID{Creator: m, Local: addr.LocalUID(p + 1)},
				CPUMicros:   uint32(500 + (i+p)*37%9000),
				MemKB:       uint32(64 + p*16),
				MsgsOut:     uint32((i + p) % 40),
				TopPeer:     addr.MachineID((i+p)%n + 1),
				TopPeerMsgs: uint32((i * (p + 1)) % 60),
			})
		}
		reports[i] = rep
	}
	return reports
}

// BenchmarkPolicyRound is the per-round cost procmgr pays: one op is a
// full collector round on 256 machines (every load report observed, the
// round-closing sweep) and a composite (queue-depth + memory-pressure +
// affinity) decide over the merged view. At a 10 ms report cadence a
// 1000-machine cluster has 10 ms per round; this is the 256-machine slice.
func BenchmarkPolicyRound(b *testing.B) {
	const n = 256
	reports := roundReports(n)
	coll := NewCollector(machines(n), 0)
	pol := NewComposite(8,
		Rule{Policy: NewQueueDepth(3, 2, 1), Weight: 3},
		Rule{Policy: NewMemoryPressure(8192, 4096, 1), Weight: 2},
		Rule{Policy: NewAffinityAware(10, 1, nil), Weight: 1},
	)
	now := sim.Time(0)
	decisions := 0
	round := func() {
		now += 10_000
		for i := range reports {
			if coll.Observe(now, reports[i]) {
				decisions += len(pol.Decide(now, coll.View(now)))
			}
		}
	}
	round() // warm the collector and the policies' cooldown maps
	decisions = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(decisions)/b.Elapsed().Seconds(), "decisions/s")
}
