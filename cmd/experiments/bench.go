// Hot-path benchmark trajectory: -bench-json re-measures the simulator
// core's real (wall-clock) hot-path costs and appends them to a JSON file,
// so performance regressions across PRs are visible in version control.
// The seed_baseline block holds the numbers measured on the pre-rewrite
// engine (container/heap, per-event allocation, map-based netw counters)
// and is never overwritten; every run records its speedup against it.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
	"demosmp/internal/workload"
)

// seedBaseline is the seed-repo measurement (Intel Xeon @ 2.10GHz,
// go test -bench, before the zero-allocation overhaul). The kernel tier
// was measured immediately before the kernel fast-path rewrite (pooled
// envelopes, ring queues, dense tables) on the same machine.
var seedBaseline = benchSample{
	EngineScheduleNsOp:        112.9,
	EngineDispatchDepth64NsOp: 296.7,
	NetwSendNsOp:              422.9,
	MsgEncodeNsOp:             14.95,
	TimeStringNsOp:            226.8,
	EngineScheduleAllocsOp:    1,
	NetwSendAllocsOp:          2,
	KernelLocalRTNsOp:         1121,
	KernelPingPongNsOp:        1422,
	KernelMigrationNsOp:       19689,
	KernelForwardNsOp:         3675,
	KernelLocalRTAllocsOp:     14,
	KernelPingPongMsgsPerSec:  2e9 / 1422,
}

type benchSample struct {
	Timestamp                 string  `json:"timestamp,omitempty"`
	EngineScheduleNsOp        float64 `json:"engine_schedule_ns_op"`
	EngineDispatchDepth64NsOp float64 `json:"engine_dispatch_depth64_ns_op"`
	NetwSendNsOp              float64 `json:"netw_send_ns_op"`
	MsgEncodeNsOp             float64 `json:"msg_encode_ns_op"`
	TimeStringNsOp            float64 `json:"time_string_ns_op"`
	EngineScheduleAllocsOp    float64 `json:"engine_schedule_allocs_op"`
	NetwSendAllocsOp          float64 `json:"netw_send_allocs_op"`
	// Kernel end-to-end tier: one op is one application-visible round
	// (same-machine round trip, cross-machine ping-pong, full 8-step
	// migration, forwarded send), composing syscalls, routing, network,
	// and scheduling.
	KernelLocalRTNsOp        float64 `json:"kernel_local_rt_ns_op,omitempty"`
	KernelPingPongNsOp       float64 `json:"kernel_pingpong_ns_op,omitempty"`
	KernelMigrationNsOp      float64 `json:"kernel_migration_ns_op,omitempty"`
	KernelForwardNsOp        float64 `json:"kernel_forward_ns_op,omitempty"`
	KernelLocalRTAllocsOp    float64 `json:"kernel_local_rt_allocs_op,omitempty"`
	KernelMigrationAllocsOp  float64 `json:"kernel_migration_allocs_op"`
	KernelPingPongMsgsPerSec float64 `json:"kernel_pingpong_msgs_per_sec,omitempty"`
	// The same migration as a core.New cluster runs it: a gob-backed
	// workload.Counter body, tracer and obs plane attached.
	KernelMigrationStatefulTracedNsOp     float64 `json:"kernel_migration_stateful_traced_ns_op,omitempty"`
	KernelMigrationStatefulTracedAllocsOp float64 `json:"kernel_migration_stateful_traced_allocs_op,omitempty"`
	// Policy tier: one op is a full 256-machine collector round plus the
	// composite policy decide (see policybench.go).
	PolicySweepNsOp       float64 `json:"policy_sweep_ns_op,omitempty"`
	PolicyDecisionsPerSec float64 `json:"policy_decisions_per_sec,omitempty"`
	DispatchSpeedupVsSeed float64 `json:"dispatch_speedup_vs_seed,omitempty"`
	PingPongSpeedupVsSeed float64 `json:"pingpong_speedup_vs_seed,omitempty"`
}

type benchFile struct {
	Benchmark    string        `json:"benchmark"`
	SeedBaseline benchSample   `json:"seed_baseline"`
	Runs         []benchSample `json:"runs"`
	// Scale holds the whole-cluster throughput tier (see scale.go): one
	// entry per -bench-json run, events/sec at 64/256/1000 machines on
	// 1/2/4 parallel shards.
	Scale []scaleRun `json:"scale,omitempty"`
	// Chaos holds the fault-plane throughput tier (see chaosbench.go):
	// events/sec of the 64-machine 4-shard parallel chaos soak, lossless
	// vs lossy, one entry per -bench-json run.
	Chaos []chaosRun `json:"chaos,omitempty"`
}

// timeIt runs fn(iters) reps times and returns the best ns/op (the standard
// microbenchmark min-of-N to shed scheduler noise). In -bench-short mode
// (CI) the iteration count is scaled down; reps are never reduced, since
// min-of-N is what sheds noisy-neighbor interference.
func timeIt(reps int, iters int, fn func(iters int)) float64 {
	iters = scaleIters(iters)
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn(iters)
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// scaleIters applies -bench-short: a tenth of the full iteration budget,
// floored so allocation rates stay statistically meaningful.
func scaleIters(iters int) int {
	if !benchShort {
		return iters
	}
	if iters >= 10_000 {
		return iters / 10
	}
	return iters
}

func measureHotpath() benchSample {
	var s benchSample
	nop := func() {}

	// Event engine: schedule+fire with an empty queue.
	{
		e := sim.NewEngine(1)
		s.EngineScheduleNsOp = timeIt(3, 2_000_000, func(n int) {
			for i := 0; i < n; i++ {
				e.At(e.Now()+1, "bench", nop)
				e.Step()
			}
		})
	}
	// Event engine: schedule+fire with 64 events pending (heap actually
	// sifts) — the tracked event-dispatch number.
	{
		e := sim.NewEngine(1)
		for i := 0; i < 64; i++ {
			e.At(sim.Time(i), "fill", nop)
		}
		s.EngineDispatchDepth64NsOp = timeIt(3, 2_000_000, func(n int) {
			for i := 0; i < n; i++ {
				e.At(e.Now()+64, "bench", nop)
				e.Step()
			}
		})
	}
	// Lossless network send+deliver, with the obs frame histogram live.
	{
		e := sim.NewEngine(1)
		nw := netw.New(e, netw.Config{})
		nw.RegisterObs(obs.NewRegistry())
		nw.Attach(1, benchEP{})
		nw.Attach(2, benchEP{})
		m := &msg.Message{
			Kind: msg.KindUser,
			From: addr.At(addr.ProcessID{Creator: 1, Local: 1}, 1),
			To:   addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2),
			Body: make([]byte, 32),
		}
		s.NetwSendNsOp = timeIt(3, 1_000_000, func(n int) {
			for i := 0; i < n; i++ {
				nw.Send(1, 2, m)
				for e.Step() {
				}
			}
		})
		s.NetwSendAllocsOp = allocsPerOp(scaleIters(100_000), func(n int) {
			for i := 0; i < n; i++ {
				nw.Send(1, 2, m)
				for e.Step() {
				}
			}
		})
	}
	// Wire encode into a reused buffer + cached size.
	{
		m := &msg.Message{
			Kind: msg.KindUser,
			From: addr.At(addr.ProcessID{Creator: 1, Local: 1}, 1),
			To:   addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2),
			Body: make([]byte, 32),
		}
		buf := make([]byte, 0, 256)
		s.MsgEncodeNsOp = timeIt(3, 5_000_000, func(n int) {
			for i := 0; i < n; i++ {
				buf = m.AppendWire(buf[:0])
				_ = m.WireSize()
			}
		})
	}
	// Time formatting (per trace record).
	s.TimeStringNsOp = timeIt(3, 2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = sim.Time(1234567).String()
		}
	})
	// Engine allocation rate.
	{
		e := sim.NewEngine(1)
		for i := 0; i < 256; i++ {
			e.At(e.Now()+1, "warm", nop)
		}
		for e.Step() {
		}
		s.EngineScheduleAllocsOp = allocsPerOp(scaleIters(200_000), func(n int) {
			for i := 0; i < n; i++ {
				e.At(e.Now()+1, "bench", nop)
				e.Step()
			}
		})
	}
	measureKernel(&s)
	measurePolicy(&s)
	s.DispatchSpeedupVsSeed = seedBaseline.EngineDispatchDepth64NsOp / s.EngineDispatchDepth64NsOp
	s.PingPongSpeedupVsSeed = seedBaseline.KernelPingPongNsOp / s.KernelPingPongNsOp
	return s
}

// --- kernel end-to-end tier (mirrors bench_hotpath_test.go) -----------------

func expCluster(n int) (*sim.Engine, []*kernel.Kernel) {
	e := sim.NewEngine(1)
	nw := netw.New(e, netw.Config{})
	reg := workload.Registry()
	ks := make([]*kernel.Kernel, n)
	for i := range ks {
		ks[i] = kernel.New(addr.MachineID(i+1), e, nw, kernel.Config{Registry: reg})
	}
	// Benchmark with the obs plane attached, exactly as core.New wires it:
	// the numbers must hold with instrumentation on, not in a stripped build.
	oreg, oled := obs.NewRegistry(), obs.NewLedger()
	for _, k := range ks {
		k.SetObs(oreg, oled)
	}
	nw.RegisterObs(oreg)
	return e, ks
}

// expEchoPair spawns two echo processes on machines am/bm, wires links both
// ways, and kicks the first message; a.Rounds then counts round trips.
func expEchoPair(ks []*kernel.Kernel, am, bm int) *workload.Echo {
	a, b := &workload.Echo{}, &workload.Echo{}
	apid, err := ks[am].Spawn(kernel.SpawnSpec{Body: a})
	die(err)
	bpid, err := ks[bm].Spawn(kernel.SpawnSpec{Body: b})
	die(err)
	_, err = ks[am].MintLinkTo(link.Link{Addr: addr.At(bpid, ks[bm].Machine())}, apid)
	die(err)
	_, err = ks[bm].MintLinkTo(link.Link{Addr: addr.At(apid, ks[am].Machine())}, bpid)
	die(err)
	die(ks[am].GiveMessage(apid, addr.At(bpid, ks[bm].Machine()), []byte("ping")))
	return a
}

func expRunRounds(e *sim.Engine, a *workload.Echo, target int) {
	for a.Rounds < target {
		if !e.Step() {
			die(fmt.Errorf("bench: engine idle mid ping-pong"))
		}
	}
}

// expBouncer spawns spec on the first of two warm kernels and returns a
// func that migrates it back and forth n times, each a whole 8-step
// protocol plus its cleanup tail. traced attaches one tracer (default
// capacity) and the obs plane, as core.New does; otherwise the kernels are
// bare.
func expBouncer(spec kernel.SpawnSpec, traced bool) func(n int) {
	e := sim.NewEngine(1)
	nw := netw.New(e, netw.Config{})
	done := 0
	cfg := kernel.Config{
		Registry: workload.Registry(),
		OnReport: func(r kernel.MigrationReport) {
			if r.OK {
				done++
			}
		},
	}
	if traced {
		cfg.Tracer = trace.New(e.Now, 0)
	}
	ks := []*kernel.Kernel{kernel.New(1, e, nw, cfg), kernel.New(2, e, nw, cfg)}
	if traced {
		oreg, oled := obs.NewRegistry(), obs.NewLedger()
		for _, k := range ks {
			k.SetObs(oreg, oled)
		}
		nw.RegisterObs(oreg)
	}
	pid, err := ks[0].Spawn(spec)
	die(err)
	cur := 0
	bounce := func(n int) {
		for i := 0; i < n; i++ {
			dst := 1 - cur
			ks[cur].RequestMigrationOf(addr.At(pid, ks[cur].Machine()), ks[dst].Machine())
			target := done + 1
			for done < target {
				if !e.Step() {
					die(fmt.Errorf("bench: engine idle mid-migration"))
				}
			}
			for e.Step() { // drain the cleanup/restart tail
			}
			cur = dst
		}
	}
	bounce(2) // warm both kernels
	return bounce
}

func measureKernel(s *benchSample) {
	// Same-machine round trip: send→deliver→receive→reply between two
	// native processes, plus its allocation rate (0 once pools are warm).
	{
		e, ks := expCluster(1)
		a := expEchoPair(ks, 0, 0)
		expRunRounds(e, a, 256)
		s.KernelLocalRTNsOp = timeIt(3, 500_000, func(n int) {
			expRunRounds(e, a, a.Rounds+n)
		})
		s.KernelLocalRTAllocsOp = allocsPerOp(scaleIters(200_000), func(n int) {
			expRunRounds(e, a, a.Rounds+n)
		})
	}
	// Cross-machine ping-pong: two kernels, two frames per op. The
	// headline msgs/sec is derived from this (2 messages per round).
	{
		e, ks := expCluster(2)
		a := expEchoPair(ks, 0, 1)
		expRunRounds(e, a, 256)
		s.KernelPingPongNsOp = timeIt(3, 500_000, func(n int) {
			expRunRounds(e, a, a.Rounds+n)
		})
		s.KernelPingPongMsgsPerSec = 2e9 / s.KernelPingPongNsOp
	}
	// Full 8-step migration of a blocked process, bounced between two
	// machines: 9 admin messages plus the state transfer per op.
	{
		migrate := expBouncer(kernel.SpawnSpec{Body: &workload.Null{}}, false)
		s.KernelMigrationNsOp = timeIt(3, 5_000, migrate)
		// Steady-state allocation rate of one full migration. Null's body is
		// a zero-size struct, so even the arriving side's Registry.New does
		// not reach the allocator: with the pools warm this measures 0, and
		// checkRegression gates it absolutely. Stateful bodies add exactly
		// their own body allocation (see TestMigrationSteadyStateAllocs).
		s.KernelMigrationAllocsOp = allocsPerOp(scaleIters(10_000), migrate)
	}
	// The same, wired as core.New wires a cluster and carrying state: the
	// body instance plus what the long-lived gob codec allocates per
	// Snapshot/Restore; the trace records cost nothing until read.
	{
		migrate := expBouncer(kernel.SpawnSpec{Body: &workload.Counter{Seen: 12345}}, true)
		s.KernelMigrationStatefulTracedNsOp = timeIt(3, 5_000, migrate)
		s.KernelMigrationStatefulTracedAllocsOp = allocsPerOp(scaleIters(10_000), migrate)
	}
	// Forwarded send: every message addressed to a stale machine, taking
	// the §4 forwarding hop m1 → m2 (forwarder) → m3.
	{
		e, ks := expCluster(3)
		pid, err := ks[1].Spawn(kernel.SpawnSpec{Body: &workload.Counter{}})
		die(err)
		ks[1].RequestMigrationOf(addr.At(pid, 2), 3)
		for e.Step() {
		}
		bod, ok := ks[2].BodyOf(pid)
		if !ok {
			die(fmt.Errorf("bench: sink did not arrive on m3"))
		}
		sink := bod.(*workload.Counter)
		from := addr.At(addr.ProcessID{Creator: 1, Local: 99}, 1)
		payload := []byte("fwd")
		for i := 0; i < 16; i++ {
			ks[0].GiveMessageTo(addr.At(pid, 2), from, payload)
		}
		for e.Step() {
		}
		s.KernelForwardNsOp = timeIt(3, 200_000, func(n int) {
			base := sink.Seen
			for i := 0; i < n; i++ {
				ks[0].GiveMessageTo(addr.At(pid, 2), from, payload)
				for sink.Seen == base+i {
					if !e.Step() {
						die(fmt.Errorf("bench: engine idle before delivery"))
					}
				}
			}
		})
	}
}

type benchEP struct{}

func (benchEP) DeliverFrame(m *msg.Message) {}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// allocsPerOp measures heap allocations per iteration of fn.
func allocsPerOp(iters int, fn func(n int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn(iters)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// benchJSON runs the hot-path measurements and appends them to path.
func benchJSON(path string) {
	var f benchFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			die(fmt.Errorf("bench-json: corrupt %s: %w", path, err))
		}
	}
	f.Benchmark = "hotpath"
	f.SeedBaseline = seedBaseline // authoritative: never drifts with the file

	run := measureHotpath()
	run.Timestamp = time.Now().UTC().Format(time.RFC3339)
	f.Runs = append(f.Runs, run)

	sc := measureScale()
	sc.Timestamp = run.Timestamp
	f.Scale = append(f.Scale, sc)

	ch := measureChaos()
	ch.Timestamp = run.Timestamp
	f.Chaos = append(f.Chaos, ch)

	out, err := json.MarshalIndent(&f, "", "  ")
	die(err)
	die(os.WriteFile(path, append(out, '\n'), 0o644))

	fmt.Printf("hot-path benchmark appended to %s\n\n", path)
	fmt.Println("| metric | seed baseline | this run | speedup |")
	fmt.Println("|--------|--------------:|---------:|--------:|")
	row := func(name string, base, cur float64) {
		fmt.Printf("| %s | %.1f ns/op | %.1f ns/op | %.1fx |\n", name, base, cur, base/cur)
	}
	row("engine schedule (empty queue)", seedBaseline.EngineScheduleNsOp, run.EngineScheduleNsOp)
	row("event dispatch (depth 64)", seedBaseline.EngineDispatchDepth64NsOp, run.EngineDispatchDepth64NsOp)
	row("netw lossless send+deliver", seedBaseline.NetwSendNsOp, run.NetwSendNsOp)
	row("msg encode (reused buffer)", seedBaseline.MsgEncodeNsOp, run.MsgEncodeNsOp)
	row("sim.Time.String", seedBaseline.TimeStringNsOp, run.TimeStringNsOp)
	row("kernel local round trip", seedBaseline.KernelLocalRTNsOp, run.KernelLocalRTNsOp)
	row("kernel cross-machine ping-pong", seedBaseline.KernelPingPongNsOp, run.KernelPingPongNsOp)
	row("kernel full migration (8 steps)", seedBaseline.KernelMigrationNsOp, run.KernelMigrationNsOp)
	fmt.Printf("| kernel migration, stateful+traced | — | %.1f ns/op | |\n", run.KernelMigrationStatefulTracedNsOp)
	row("kernel forwarded send (§4 hop)", seedBaseline.KernelForwardNsOp, run.KernelForwardNsOp)
	fmt.Printf("| policy sweep+decide (256 mach) | — | %.0f ns/op | |\n", run.PolicySweepNsOp)
	fmt.Printf("| policy decisions/sec | — | %.0fk | |\n", run.PolicyDecisionsPerSec/1e3)
	fmt.Printf("| kernel ping-pong msgs/sec | %.2fM | %.2fM | %.1fx |\n",
		seedBaseline.KernelPingPongMsgsPerSec/1e6, run.KernelPingPongMsgsPerSec/1e6,
		run.KernelPingPongMsgsPerSec/seedBaseline.KernelPingPongMsgsPerSec)
	fmt.Printf("| engine allocs/op | %.0f | %.0f | |\n",
		seedBaseline.EngineScheduleAllocsOp, run.EngineScheduleAllocsOp)
	fmt.Printf("| netw send allocs/op | %.0f | %.0f | |\n",
		seedBaseline.NetwSendAllocsOp, run.NetwSendAllocsOp)
	fmt.Printf("| kernel round-trip allocs/op | %.0f | %.0f | |\n",
		seedBaseline.KernelLocalRTAllocsOp, run.KernelLocalRTAllocsOp)
	fmt.Printf("| kernel migration allocs/op | | %.1f | |\n", run.KernelMigrationAllocsOp)
	fmt.Printf("| kernel migration allocs/op, stateful+traced | | %.1f | |\n", run.KernelMigrationStatefulTracedAllocsOp)
	printScale(sc)
	printChaos(ch)
}

// trackedRows lists every ns/op metric the regression gate watches.
func trackedRows(s *benchSample) []struct {
	name string
	val  float64
} {
	return []struct {
		name string
		val  float64
	}{
		{"engine schedule (empty queue)", s.EngineScheduleNsOp},
		{"event dispatch (depth 64)", s.EngineDispatchDepth64NsOp},
		{"netw lossless send+deliver", s.NetwSendNsOp},
		{"msg encode (reused buffer)", s.MsgEncodeNsOp},
		{"sim.Time.String", s.TimeStringNsOp},
		{"kernel local round trip", s.KernelLocalRTNsOp},
		{"kernel cross-machine ping-pong", s.KernelPingPongNsOp},
		{"kernel full migration (8 steps)", s.KernelMigrationNsOp},
		{"kernel migration, stateful+traced", s.KernelMigrationStatefulTracedNsOp},
		{"kernel forwarded send (§4 hop)", s.KernelForwardNsOp},
		{"policy sweep+decide (256 mach)", s.PolicySweepNsOp},
	}
}

// checkRegression re-measures the hot paths and compares each tracked
// ns/op against the most recent run recorded in path, exiting nonzero if
// any regresses by more than 20%. Read-only: the trajectory file is not
// appended to, so the gate can run repeatedly without polluting history.
//
// Measurement policy: the whole suite is measured three times and the gate
// compares the elementwise minimum. Each metric inside a suite pass is
// already a min-of-reps (timeIt), so a single pass sheds scheduler jitter
// within one metric; taking the min across three full passes additionally
// sheds whole-pass interference (GC cycles straddling a metric,
// noisy-neighbor CPU on shared runners) that a min-of-two still let
// through often enough to flake the 20% gate. The minimum — not mean or
// median — is the right estimator here because hot-path cost has a hard
// floor and all noise is one-sided (additive).
func checkRegression(path string) {
	data, err := os.ReadFile(path)
	die(err)
	var f benchFile
	die(json.Unmarshal(data, &f))
	if len(f.Runs) == 0 {
		die(fmt.Errorf("check-regression: %s has no recorded runs", path))
	}
	prev := f.Runs[len(f.Runs)-1]
	passes := [3]benchSample{measureHotpath(), measureHotpath(), measureHotpath()}
	cur, second, third := passes[0], passes[1], passes[2]
	curRows := trackedRows(&cur)
	for _, p := range []*benchSample{&second, &third} {
		rows := trackedRows(p)
		for i := range curRows {
			if rows[i].val < curRows[i].val {
				curRows[i].val = rows[i].val
			}
		}
	}
	prevRows := trackedRows(&prev)
	bad := 0
	fmt.Printf("regression check vs last recorded run in %s (%s)\n\n", path, prev.Timestamp)
	for i, pr := range prevRows {
		c := curRows[i].val
		if pr.val == 0 {
			fmt.Printf("%-34s %29s\n", pr.name, "no recorded baseline, skipped")
			continue
		}
		delta := (c/pr.val - 1) * 100
		mark := ""
		if delta > 20 {
			bad++
			mark = "  <-- REGRESSION"
		}
		fmt.Printf("%-34s %9.1f -> %9.1f ns/op (%+5.1f%%)%s\n", pr.name, pr.val, c, delta, mark)
	}
	// Allocation delta: the zero-allocation invariants are absolute, not
	// relative. The measurement above ran with the obs plane attached, so a
	// nonzero count here means instrumentation added allocations to a hot
	// path that the AllocsPerRun guards promised stays clean.
	allocRows := []struct {
		name string
		val  float64
	}{
		{"kernel local round trip", min2(cur.KernelLocalRTAllocsOp, min2(second.KernelLocalRTAllocsOp, third.KernelLocalRTAllocsOp))},
		{"netw lossless send+deliver", min2(cur.NetwSendAllocsOp, min2(second.NetwSendAllocsOp, third.NetwSendAllocsOp))},
		{"engine schedule", min2(cur.EngineScheduleAllocsOp, min2(second.EngineScheduleAllocsOp, third.EngineScheduleAllocsOp))},
	}
	for _, ar := range allocRows {
		mark := ""
		// 0.01 absorbs runtime background mallocs smeared across the run;
		// one real allocation per op reads as >= 1.0.
		if ar.val > 0.01 {
			bad++
			mark = "  <-- instrumentation added allocations"
		}
		fmt.Printf("%-34s %24.2f allocs/op (want 0)%s\n", ar.name, ar.val, mark)
	}
	// Migration allocation rate. The benchmark migrates a workload.Null,
	// whose body is a zero-size struct: its Registry.New allocation lands on
	// the runtime's zero base and never reaches the allocator, so with the
	// record/buffer/envelope pools warm a full 8-step migration is
	// allocation-free here and the gate is absolute, like the rows above.
	// (Real bodies pay exactly their own Registry.New allocation on top;
	// TestMigrationSteadyStateAllocs pins that at <= 1 with a stateful body.)
	migAllocs := min2(cur.KernelMigrationAllocsOp, min2(second.KernelMigrationAllocsOp, third.KernelMigrationAllocsOp))
	{
		mark := ""
		if migAllocs > 0.01 {
			bad++
			mark = "  <-- migration path gained allocations"
		}
		fmt.Printf("%-34s %24.2f allocs/op (want 0)%s\n", "kernel full migration", migAllocs, mark)
	}
	// The same gate for the migration a core.New cluster actually runs
	// (Counter body, tracer and obs attached), absolute like the others:
	// the arriving body plus the long-lived gob codec's own allocations,
	// the bound TestMigrationSteadyStateAllocs holds. Per-call gob and
	// eager trace formatting made this 218.
	{
		allocs := min2(cur.KernelMigrationStatefulTracedAllocsOp,
			min2(second.KernelMigrationStatefulTracedAllocsOp, third.KernelMigrationStatefulTracedAllocsOp))
		mark := ""
		if allocs > 8 {
			bad++
			mark = "  <-- stateful, traced migration gained allocations"
		}
		fmt.Printf("%-34s %24.2f allocs/op (want <= 8)%s\n", "kernel migration, stateful+traced", allocs, mark)
	}
	// Sharded-runtime throughput gate: parallel shards must actually buy
	// wall-clock speedup on a multi-core host (absolute floor, like the
	// allocation gates; self-skipping below 4 cores).
	bad += checkScaleSpeedup()
	// Fault-plane overhead gate: the machine-anchored ARQ may cost at most
	// 4x events/sec against the lossless arm of the same sharded chaos soak.
	bad += checkChaosOverhead()
	// Policy-plane floor: the 256-machine composite sweep must sustain an
	// absolute decisions/sec rate (order-of-magnitude gate; see policybench.go).
	{
		best := cur
		if second.PolicyDecisionsPerSec > best.PolicyDecisionsPerSec {
			best = second
		}
		if third.PolicyDecisionsPerSec > best.PolicyDecisionsPerSec {
			best = third
		}
		bad += checkPolicyFloor(&best)
	}
	if bad > 0 {
		fmt.Printf("\n%d tracked metric(s) regressed\n", bad)
		os.Exit(1)
	}
	fmt.Printf("\nall tracked metrics within 20%% of the last recorded run; hot paths allocation-free\n")
}
