// Hot-path micro-benchmarks and allocation guards for the simulator core:
// event scheduling/dispatch, lossless network send/deliver, and message
// encode/decode. Unlike bench_test.go (which reports simulated-cost
// metrics), these measure real ns/op and — via TestHotPathZeroAlloc —
// lock in the zero-allocation invariants of the steady-state path.
//
// Run: go test -run '^$' -bench 'Engine|NetwSend|Msg|TimeString|Kernel' -benchmem .
// This file is the only owner of these ns/op numbers besides the per-layer
// rows of bench/ (bash bench/run.sh --workload <w> --trace 1), which is
// where recorded before/after comparisons come from; nothing appends them
// to BENCH_hotpath.json any more (DESIGN.md §7, "Deletion record").
package demosmp_test

import (
	"testing"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
	"demosmp/internal/workload"
)

// BenchmarkEngineSchedule is the tightest event-engine cycle: schedule one
// event, fire it. Steady state must be allocation-free (arena slot reuse).
func BenchmarkEngineSchedule(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1, "bench", fn)
		e.Step()
	}
}

// BenchmarkEngineDispatchDepth64 keeps 64 events pending, the typical
// working depth of a busy multi-machine cluster: the event-dispatch number
// (bench row sim.schedule_fire_ns.d64).
func BenchmarkEngineDispatchDepth64(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.At(sim.Time(i), "fill", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+64, "bench", fn)
		e.Step()
	}
}

// benchEngineDispatch is one schedule + one fire with depth events pending,
// at the distances the kernels schedule at — a same-instant hand-off, a
// local delivery (5 µs), a frame's transit (500 µs), a retransmit check
// (3 000 µs) — plus, with watchdogs set, a 30 s watchdog armed and cancelled
// at once every tenth event, which stays queued as a tombstone until the
// clock reaches it (at these depths the clock crawls, so they pile up for the
// whole run and the arena grows with them: the B/op column). Depth 1 is a
// ping-pong's queue, which arms no watchdog; 1 k is lossy-chatter's and 16 k
// migrate-storm's (EXPERIMENTS.md, "PR 22"). The cost should not depend on
// which.
func benchEngineDispatch(b *testing.B, depth int, watchdogs bool) {
	e := sim.NewEngine(1)
	fn := func() {}
	deltas := [...]sim.Time{0, 5, 500, 3000}
	for i := 0; i < depth; i++ {
		e.After(deltas[i%len(deltas)], "fill", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(deltas[i%len(deltas)], "bench", fn)
		if watchdogs && i%10 == 0 {
			e.Cancel(e.After(30e6, "watchdog", fn))
		}
		e.Step()
	}
}

func BenchmarkEngineDispatchDepth1(b *testing.B)   { benchEngineDispatch(b, 1, false) }
func BenchmarkEngineDispatchDepth1k(b *testing.B)  { benchEngineDispatch(b, 1000, true) }
func BenchmarkEngineDispatchDepth16k(b *testing.B) { benchEngineDispatch(b, 16000, true) }

// BenchmarkEngineCancel measures schedule+cancel+drain, the watchdog
// pattern of kernel migrations.
func BenchmarkEngineCancel(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.At(e.Now()+5, "watchdog", fn)
		e.Cancel(ev)
		e.At(e.Now()+1, "bench", fn)
		e.Step()
	}
}

type benchSink struct{ n int }

func (s *benchSink) DeliverFrame(m *msg.Message) { s.n++ }

func benchMessage() *msg.Message {
	return &msg.Message{
		Kind: msg.KindUser,
		From: addr.At(addr.ProcessID{Creator: 1, Local: 1}, 1),
		To:   addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2),
		Body: make([]byte, 32),
	}
}

// BenchmarkNetwSend is one lossless frame: Send, transit, DeliverFrame.
// Steady state must be allocation-free (by-value calendar entries in a
// recycled arena, flat counters, cached WireSize).
func BenchmarkNetwSend(b *testing.B) {
	e := sim.NewEngine(1)
	n := netw.New(e, netw.Config{})
	n.Attach(1, &benchSink{})
	sink := &benchSink{}
	n.Attach(2, sink)
	m := benchMessage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(1, 2, m)
		for e.Step() {
		}
	}
	if sink.n != b.N {
		b.Fatalf("delivered %d of %d frames", sink.n, b.N)
	}
}

// netwAtDepth returns a lossless two-machine network with depth frames in
// flight from 1 to 2, due 1 µs apart (the 2 ms latency is what lets a
// thousand be pending at once), and a cycle that sends one more and delivers
// the oldest: the canonical send → pump pair at a constant queue depth. The
// ping-pongs run at depth 1–2, migrate-storm and lossy-chatter at a mean of
// 46 with peaks of 67 and 123 (EXPERIMENTS.md, "PR 24").
func netwAtDepth(depth int) (cycle func(), sink *benchSink) {
	e := sim.NewEngine(1)
	n := netw.New(e, netw.Config{Latency: 2000})
	n.Attach(1, &benchSink{})
	sink = &benchSink{}
	n.Attach(2, sink)
	m := benchMessage()
	for i := 0; i < depth; i++ {
		n.Send(1, 2, m)
		e.RunFor(1)
	}
	return func() {
		n.Send(1, 2, m)
		e.Step()
	}, sink
}

// benchNetwSendDepth is one send and one delivery with depth frames pending.
// The cost should not depend on depth: the calendar files and finds a frame
// by its arrival time, with no comparison against the others.
func benchNetwSendDepth(b *testing.B, depth int) {
	cycle, sink := netwAtDepth(depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if sink.n != b.N {
		b.Fatalf("delivered %d of %d frames", sink.n, b.N)
	}
}

func BenchmarkNetwSendDepth1(b *testing.B)  { benchNetwSendDepth(b, 1) }
func BenchmarkNetwSendDepth64(b *testing.B) { benchNetwSendDepth(b, 64) }
func BenchmarkNetwSendDepth1k(b *testing.B) { benchNetwSendDepth(b, 1000) }

// benchLossy is the lossy-chatter network: 5 % loss on frames and on acks.
var benchLossy = netw.Config{LossRate: 0.05, RetransTimeout: 3000, MaxRetries: 200}

// BenchmarkNetwSendARQ is the reliable path between two kernels: one op is a
// cross-machine round trip, so two ARQ rounds (master copy, wire copy,
// delivery, ack, retransmission check) plus the retransmissions and
// suppressed duplicates 5 % loss brings. Steady state must be
// allocation-free: copies come from the kernels' envelope pools, flights
// from the network's record pool, dedup is a bit window.
func BenchmarkNetwSendARQ(b *testing.B) {
	e, _, ks := benchClusterOn(2, benchLossy)
	a, _ := benchEchoPair(b, ks, 0, 1)
	runRounds(b, e, a, 2048) // warm the pools through a few hundred retransmissions
	b.ReportAllocs()
	b.ResetTimer()
	runRounds(b, e, a, a.rounds+b.N)
}

// BenchmarkMsgEncode appends the wire form into a reused buffer and reads
// the (cached) wire size — the per-frame encode work of the send path.
func BenchmarkMsgEncode(b *testing.B) {
	m := benchMessage()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.AppendWire(buf[:0])
		_ = m.WireSize()
	}
	if len(buf) != m.WireSize() {
		b.Fatal("encode size mismatch")
	}
}

// BenchmarkMsgDecode parses one message from a prebuilt wire buffer.
// (Decode inherently allocates the Message and its body copy.)
func BenchmarkMsgDecode(b *testing.B) {
	wire := benchMessage().AppendWire(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := msg.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// Three of the kernel's hot sites, declared as the kernel declares them,
// and the stream site as it was declared while it took its region's name
// as the record's string.
var (
	benchSiteStep2 = trace.NewSite(trace.CatMigrate, "step2-ask-destination", "%v -> %v (program=%dB resident=%dB swappable=%dB)",
		trace.ArgPID, trace.ArgMachine, trace.ArgInt, trace.ArgInt, trace.ArgInt)
	benchSiteSpawn = trace.NewSite(trace.CatProc, "spawn", "%v kind=%s image=%dB links=%d",
		trace.ArgPID, trace.ArgStr, trace.ArgInt, trace.ArgInt)
	benchSiteStream = trace.NewNamedSite(trace.CatData, "stream-region", "%v %v: %dB in %d packets -> %v", msg.Region.String,
		trace.ArgPID, trace.ArgName, trace.ArgInt, trace.ArgInt, trace.ArgMachine)
	benchSiteStreamStr = trace.NewSite(trace.CatData, "stream-region", "%v %v: %dB in %d packets -> %v",
		trace.ArgPID, trace.ArgStr, trace.ArgInt, trace.ArgInt, trace.ArgMachine)
)

// benchRotation is the six names a migration's records took turns on while
// they passed them as strings: the states, the regions and a message kind.
var benchRotation = [6]string{"waiting", "resident", "swappable", "program", "user", "ready"}

// BenchmarkTraceSite emits a four-argument site (the kernel's spawn: a PID,
// a string and two ints) into a full 64-record ring, whose records stay in
// cache, and into the default 64 k ring, whose 2 MB the emits walk. Two
// more rows emit the five-argument stream site into the 64 k ring: named
// with its region as a word (trace.Name), and with six names taking turns
// as the record's string, which finds each through the string table's
// index, as a migration's records did before they named their enums.
func BenchmarkTraceSite(b *testing.B) {
	pid := addr.ProcessID{Creator: 2, Local: 9}
	for _, size := range []struct {
		name string
		max  int
	}{{"ring64", 64}, {"ring64k", 1 << 16}} {
		b.Run(size.name, func(b *testing.B) {
			var now sim.Time
			tr := trace.New(func() sim.Time { return now }, size.max)
			for i := 0; i < size.max; i++ {
				tr.Log(2, benchSiteSpawn, "wl-counter", trace.PID(pid), trace.Int(4096), trace.Int(2))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Log(2, benchSiteSpawn, "wl-counter", trace.PID(pid), trace.Int(i), trace.Int(2))
			}
		})
	}
	b.Run("named-ring64k", func(b *testing.B) {
		var now sim.Time
		tr := trace.New(func() sim.Time { return now }, 1<<16)
		for i := 0; i < 1<<16; i++ {
			tr.Log(2, benchSiteStream, "", trace.PID(pid), trace.Name(msg.Region(1+i%3)), trace.Int(i), trace.Int(2), trace.Machine(3))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Log(2, benchSiteStream, "", trace.PID(pid), trace.Name(msg.Region(1+i%3)), trace.Int(i), trace.Int(2), trace.Machine(3))
		}
	})
	b.Run("rotate6-ring64k", func(b *testing.B) {
		var now sim.Time
		tr := trace.New(func() sim.Time { return now }, 1<<16)
		for i := 0; i < 1<<16; i++ {
			tr.Log(2, benchSiteStreamStr, benchRotation[i%len(benchRotation)], trace.PID(pid), trace.Int(i), trace.Int(2), trace.Machine(3))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Log(2, benchSiteStreamStr, benchRotation[i%len(benchRotation)], trace.PID(pid), trace.Int(i), trace.Int(2), trace.Machine(3))
		}
	})
}

// BenchmarkTimeString formats a representative timestamp (trace-heavy runs
// call this per record).
func BenchmarkTimeString(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sim.Time(1234567).String()
	}
}

// --- Kernel end-to-end tier -------------------------------------------------
//
// The benchmarks below drive whole kernels through the public API: native
// bodies exchanging messages over links, full migrations, and forwarded
// sends. One op is one complete application-visible round (not one frame),
// so these numbers compose everything: procCtx syscalls, routing, the
// network substrate, scheduling slices, and delivery.

// benchEchoBody echoes every delivery back over link 1 and counts rounds.
type benchEchoBody struct{ rounds int }

func (e *benchEchoBody) Kind() string { return "bench-echo" }
func (e *benchEchoBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		e.rounds++
		if err := ctx.Send(1, d.Body); err != nil {
			return 0, proc.Status{State: proc.Crashed, Err: err}
		}
	}
}
func (e *benchEchoBody) Snapshot() ([]byte, error) { return nil, nil }
func (e *benchEchoBody) Restore([]byte) error      { return nil }

// benchSinkBody consumes deliveries and counts them.
type benchSinkBody struct{ got int }

func (s *benchSinkBody) Kind() string { return "bench-sink" }
func (s *benchSinkBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		if _, ok := ctx.Recv(); !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		s.got++
	}
}
func (s *benchSinkBody) Snapshot() ([]byte, error) { return nil, nil }
func (s *benchSinkBody) Restore([]byte) error      { return nil }

// benchCluster builds n kernels on one engine with benchmark body kinds
// registered (so migrated bodies can be re-instantiated on arrival).
func benchCluster(n int) (*sim.Engine, []*kernel.Kernel) {
	e, _, ks := benchClusterOn(n, netw.Config{})
	return e, ks
}

// benchClusterOn is benchCluster over a network of the given configuration.
func benchClusterOn(n int, cfg netw.Config) (*sim.Engine, *netw.Network, []*kernel.Kernel) {
	e := sim.NewEngine(1)
	nw := netw.New(e, cfg)
	reg := proc.NewRegistry()
	reg.Register("bench-echo", func() proc.Body { return &benchEchoBody{} })
	reg.Register("bench-sink", func() proc.Body { return &benchSinkBody{} })
	ks := make([]*kernel.Kernel, n)
	for i := range ks {
		ks[i] = kernel.New(addr.MachineID(i+1), e, nw, kernel.Config{Registry: reg})
	}
	// Instrumentation on: the zero-allocation guards below must hold with
	// the obs plane attached, exactly as core.New runs it.
	oreg, oled := obs.NewRegistry(), obs.NewLedger()
	for _, k := range ks {
		k.SetObs(oreg, oled)
	}
	nw.RegisterObs(oreg)
	return e, nw, ks
}

// benchEchoPair spawns two echo processes (on machines am and bm), wires
// links both ways, and kicks the first message toward a. The pair then
// ping-pongs forever; a.rounds counts completed round trips.
func benchEchoPair(tb testing.TB, ks []*kernel.Kernel, am, bm int) (*benchEchoBody, *benchEchoBody) {
	a, b := &benchEchoBody{}, &benchEchoBody{}
	apid, err := ks[am].Spawn(kernel.SpawnSpec{Body: a})
	if err != nil {
		tb.Fatal(err)
	}
	bpid, err := ks[bm].Spawn(kernel.SpawnSpec{Body: b})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ks[am].MintLinkTo(link.Link{Addr: addr.At(bpid, ks[bm].Machine())}, apid); err != nil {
		tb.Fatal(err)
	}
	if _, err := ks[bm].MintLinkTo(link.Link{Addr: addr.At(apid, ks[am].Machine())}, bpid); err != nil {
		tb.Fatal(err)
	}
	if err := ks[am].GiveMessage(apid, addr.At(bpid, ks[bm].Machine()), []byte("ping")); err != nil {
		tb.Fatal(err)
	}
	return a, b
}

// runRounds steps the engine until body a has completed target rounds.
func runRounds(tb testing.TB, e *sim.Engine, a *benchEchoBody, target int) {
	for a.rounds < target {
		if !e.Step() {
			tb.Fatal("engine went idle mid ping-pong")
		}
	}
}

// BenchmarkKernelLocalRoundTrip is one same-machine send→deliver→receive→
// reply cycle between two native processes. The kernel-path number that
// must be allocation-free in steady state.
func BenchmarkKernelLocalRoundTrip(b *testing.B) {
	e, ks := benchCluster(1)
	a, _ := benchEchoPair(b, ks, 0, 0)
	runRounds(b, e, a, 64) // warm pools, queues, and the scheduler
	b.ReportAllocs()
	b.ResetTimer()
	runRounds(b, e, a, a.rounds+b.N)
}

// BenchmarkKernelPingPong is the cross-machine round trip: two kernels,
// two frames per op through the network substrate (2 messages per op).
func BenchmarkKernelPingPong(b *testing.B) {
	e, ks := benchCluster(2)
	a, _ := benchEchoPair(b, ks, 0, 1)
	runRounds(b, e, a, 64)
	b.ReportAllocs()
	b.ResetTimer()
	runRounds(b, e, a, a.rounds+b.N)
}

// BenchmarkKernelMigration is one full 8-step migration of a blocked
// native process, alternating between two machines. One op = the whole
// protocol: 9 admin messages plus the state transfer.
func BenchmarkKernelMigration(b *testing.B) {
	reg := proc.NewRegistry()
	reg.Register("bench-sink", func() proc.Body { return &benchSinkBody{} })
	migrate := migrationBouncer(b, reg, &benchSinkBody{}, false)
	migrate() // warm both kernels' pools and streams
	migrate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		migrate()
	}
}

// BenchmarkKernelMigrationStatefulTraced is the same migration as a
// core.New cluster runs it: a workload.Counter body, the tracer
// and the obs plane attached.
func BenchmarkKernelMigrationStatefulTraced(b *testing.B) {
	migrate := migrationBouncer(b, workload.Registry(), &workload.Counter{Seen: 12345}, true)
	migrate()
	migrate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		migrate()
	}
}

// BenchmarkKernelForwardedSend sends each message to a stale address so it
// takes a forwarding hop (§4): m1 → m2 (forwarder) → m3, plus the §5 link
// update emitted back toward the sender's kernel.
func BenchmarkKernelForwardedSend(b *testing.B) {
	e, ks := benchCluster(3)
	body := &benchSinkBody{}
	pid, err := ks[1].Spawn(kernel.SpawnSpec{Body: body})
	if err != nil {
		b.Fatal(err)
	}
	// Migrate the sink m2 → m3 so m2 keeps a forwarding address.
	ks[1].RequestMigrationOf(addr.At(pid, 2), 3)
	for e.Step() {
	}
	bod, ok := ks[2].BodyOf(pid)
	if !ok {
		b.Fatal("sink did not arrive on m3")
	}
	sink := bod.(*benchSinkBody)
	from := addr.At(addr.ProcessID{Creator: 1, Local: 99}, 1)
	payload := []byte("fwd")
	for i := 0; i < 16; i++ { // warm
		ks[0].GiveMessageTo(addr.At(pid, 2), from, payload)
	}
	for e.Step() {
	}
	base := sink.got
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks[0].GiveMessageTo(addr.At(pid, 2), from, payload)
		for sink.got == base+i {
			if !e.Step() {
				b.Fatal("engine idle before delivery")
			}
		}
	}
}

// migrationBouncer builds two kernels and one process of the given body that
// every call of the returned func migrates, whole 8-step protocol and
// cleanup tail, to the other kernel. traced wires the kernels the way
// core.build does — one shared tracer at the default capacity and the obs
// plane; otherwise they are bare.
func migrationBouncer(tb testing.TB, reg *proc.Registry, body proc.Body, traced bool) (migrate func()) {
	e := sim.NewEngine(1)
	nw := netw.New(e, netw.Config{})
	done := 0
	cfg := kernel.Config{
		Registry: reg,
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
	pid, err := ks[0].Spawn(kernel.SpawnSpec{Body: body})
	if err != nil {
		tb.Fatal(err)
	}
	cur := 0
	return func() {
		dst := 1 - cur
		ks[cur].RequestMigrationOf(addr.At(pid, ks[cur].Machine()), ks[dst].Machine())
		target := done + 1
		for done < target {
			if !e.Step() {
				tb.Fatal("engine idle mid-migration")
			}
		}
		// The source reports done at step 7; drain the cleanup/restart
		// tail so the process is runnable before the next request.
		for e.Step() {
		}
		cur = dst
	}
}

// TestMigrationSteadyStateAllocs is the dynamic guard behind the
// //demos:hotpath annotations on the migration fast path (pooled
// out/inMigration records, gather encoders, pooled streams, recycled
// Process records, deferred trace records, the body state codec). A
// process bouncing between two warm kernels reaches a steady state where one
// full 8-step migration performs exactly one heap allocation: the arriving
// body instance from Registry.New, which is inherent to re-instantiating the
// process. Everything else — envelopes, region buffers, link table,
// watchdogs, records — recycles, and the ledger stores the migration's record
// in chunks (a bare kernel keeps its own). Wired as core.build wires a
// cluster (tracer and obs plane attached) and carrying a workload.Counter,
// the same migration adds only the snapshot's bytes (2 in all):
// proc.Restore decodes in place. A gob.Encoder, a gob.Decoder and a
// fmt.Sprintf per trace record made that 218; a ledger record of its own,
// a copy in Kernel.reports and long-lived gob's decode buffer, 4.
func TestMigrationSteadyStateAllocs(t *testing.T) {
	bare := proc.NewRegistry()
	bare.Register("bench-sink", func() proc.Body { return &benchSinkBody{} })
	for _, arm := range []struct {
		name   string
		reg    *proc.Registry
		body   proc.Body
		traced bool
		max    float64
	}{
		{"stateless body, bare kernels", bare, &benchSinkBody{}, false, 1},
		{"Counter body, tracer and obs attached", workload.Registry(), &workload.Counter{Seen: 12345}, true, 2},
	} {
		t.Run(arm.name, func(t *testing.T) {
			migrate := migrationBouncer(t, arm.reg, arm.body, arm.traced)
			// Warm both directions: each kernel needs its own pools, free
			// lists, and region buffers populated.
			for i := 0; i < 4; i++ {
				migrate()
			}
			if n := testing.AllocsPerRun(50, migrate); n > arm.max {
				t.Fatalf("steady-state migration allocates %.1f/op, want <= %v", n, arm.max)
			} else {
				t.Logf("%.1f allocs/op", n)
			}
		})
	}
}

// benchTickerBody is the shape of the benchmark's timer-driven senders
// (bench/_src ticker): every timer delivery sends one sequence-stamped
// 8-byte message on link 1 and re-arms.
type benchTickerBody struct {
	armed bool
	sent  int
	buf   [8]byte
}

func (b *benchTickerBody) Kind() string { return "bench-ticker" }
func (b *benchTickerBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if !b.armed {
		b.armed = true
		ctx.SetTimer(10, 1)
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op == msg.OpTimer {
			b.buf[0] = byte(b.sent)
			if err := ctx.Send(1, b.buf[:]); err != nil {
				return 0, proc.Status{State: proc.Crashed, Err: err}
			}
			b.sent++
			ctx.SetTimer(10, 1)
		}
	}
}
func (b *benchTickerBody) Snapshot() ([]byte, error) { return nil, nil }
func (b *benchTickerBody) Restore([]byte) error      { return nil }

// benchAltTimerBody re-arms its timer each time it fires, with tags 1 and 2
// in turn, so every other fired timer misses the kernel's one timer mark
// (msg.Pool.TimerMark), and checks each tag it receives.
type benchAltTimerBody struct {
	armed bool
	fired int
	bad   int
}

func (b *benchAltTimerBody) Kind() string { return "bench-alt-timer" }
func (b *benchAltTimerBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if !b.armed {
		b.armed = true
		ctx.SetTimer(10, 1)
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op == msg.OpTimer {
			if d.Xfer != uint16(1+b.fired%2) {
				b.bad++
			}
			b.fired++
			ctx.SetTimer(10, uint16(1+b.fired%2))
		}
	}
}
func (b *benchAltTimerBody) Snapshot() ([]byte, error) { return nil, nil }
func (b *benchAltTimerBody) Restore([]byte) error      { return nil }

// TestSpawnExitSteadyStateAllocs is the dynamic guard behind the
// //demos:hotpath annotations on the life of a short process: Spawn draws
// the Process record and the link table from the free lists terminate
// returned them to, the pid goes into (and out of) the dense local table and
// the dense exit table, SetTimer rides a pooled pending record and its
// envelope is drawn from the pool when it fires. On a warm bare kernel a
// spawn-to-exit cycle of the open-loop job — the caller's body reused, so
// the kernel's share is all there is — and one tick of a timer-driven sender
// allocate nothing, and so does a timer whose tag alternates, so that half
// its fires miss the kernel's one timer mark. (The per-call timer body,
// closure and heap envelope and the per-spawn record, table, slot backing,
// map and hash-map inserts made that 8 and 3; 9 with the job the benchmark
// row allocates per spawn.) So does a whole open-loop arrival on a warm
// cluster — the driver's event, the spawn onto a parked record and the job
// run to its exit — since the driver hands every job one of its two shared
// bodies (a body per arrival made that 1).
func TestSpawnExitSteadyStateAllocs(t *testing.T) {
	t.Run("open-loop-arrival", func(t *testing.T) {
		c, err := demosmp.New(demosmp.Options{Machines: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		d := c.StartOpenLoop(workload.OpenLoop{Seed: 1, MeanGap: 1000, PerMachine: 1 << 20})
		eng, k := c.EngineOf(1), c.Kernel(1)
		arrival := func() {
			target := d.Spawned() + 1
			for d.Spawned() < target || k.Stats().Exited < d.Spawned() {
				if !eng.Step() {
					t.Fatal("engine idle before the arrival's job exited")
				}
			}
		}
		for i := 0; i < 64; i++ {
			arrival()
		}
		if n := testing.AllocsPerRun(200, arrival); n != 0 {
			t.Fatalf("an open-loop arrival run to its exit allocates %.1f/op, want 0", n)
		}
	})
	t.Run("spawn-timer-exit", func(t *testing.T) {
		e := sim.NewEngine(1)
		k := kernel.New(1, e, netw.New(e, netw.Config{}), kernel.Config{})
		job := &workload.Job{}
		cycle := func() {
			*job = workload.Job{Service: 1}
			if _, err := k.Spawn(kernel.SpawnSpec{Body: job}); err != nil {
				t.Fatal(err)
			}
			e.Run()
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Fatalf("spawn -> timer -> exit allocates %.1f/op in the kernel, want 0", n)
		}
		if st := k.Stats(); st.Exited != st.Spawned {
			t.Fatalf("spawned %d, exited %d", st.Spawned, st.Exited)
		}
	})
	t.Run("ticker", func(t *testing.T) {
		e := sim.NewEngine(1)
		k := kernel.New(1, e, netw.New(e, netw.Config{}), kernel.Config{})
		sink := &benchSinkBody{}
		spid, err := k.Spawn(kernel.SpawnSpec{Body: sink})
		if err != nil {
			t.Fatal(err)
		}
		tick := &benchTickerBody{}
		if _, err := k.Spawn(kernel.SpawnSpec{Body: tick, Links: []link.Link{{Addr: addr.At(spid, 1)}}}); err != nil {
			t.Fatal(err)
		}
		oneTick := func() {
			for target := sink.got + 1; sink.got < target; {
				if !e.Step() {
					t.Fatal("engine idle before the tick was delivered")
				}
			}
		}
		for i := 0; i < 64; i++ {
			oneTick()
		}
		if n := testing.AllocsPerRun(200, oneTick); n != 0 {
			t.Fatalf("SetTimer-driven send allocates %.1f/tick, want 0", n)
		}
	})
	t.Run("alternating-tags", func(t *testing.T) {
		// A timer that misses the kernel's one mark waits as its own
		// envelope: no tag makes a new mark.
		e := sim.NewEngine(1)
		k := kernel.New(1, e, netw.New(e, netw.Config{}), kernel.Config{})
		body := &benchAltTimerBody{}
		if _, err := k.Spawn(kernel.SpawnSpec{Body: body}); err != nil {
			t.Fatal(err)
		}
		oneFire := func() {
			for target := body.fired + 1; body.fired < target; {
				if !e.Step() {
					t.Fatal("engine idle before the timer was delivered")
				}
			}
		}
		for i := 0; i < 64; i++ {
			oneFire()
		}
		if n := testing.AllocsPerRun(200, oneFire); n != 0 {
			t.Fatalf("a fired timer with tags 1 and 2 in turn allocates %.1f/fire, want 0", n)
		}
		if body.bad != 0 {
			t.Fatalf("%d of %d timers delivered with the wrong tag", body.bad, body.fired)
		}
	})
}

// TestHotPathZeroAlloc locks in the zero-allocation invariants. It uses
// testing.AllocsPerRun after a warm-up pass, so arena/heap/pool growth is
// excluded and only the steady state is measured.
func TestHotPathZeroAlloc(t *testing.T) {
	t.Run("engine-schedule", func(t *testing.T) {
		e := sim.NewEngine(1)
		fn := func() {}
		for i := 0; i < 256; i++ { // warm the arena
			e.At(e.Now()+1, "warm", fn)
		}
		for e.Step() {
		}
		if n := testing.AllocsPerRun(200, func() {
			e.At(e.Now()+1, "bench", fn)
			e.Step()
		}); n != 0 {
			t.Fatalf("engine schedule+step allocates %.1f/op, want 0", n)
		}
	})
	t.Run("engine-wheel", func(t *testing.T) {
		// The wheel beyond one level: the kernels' distances, a watchdog
		// cancelled into a tombstone, a look ahead and an event scheduled
		// behind it (the rewind), cascades to bring them all back down.
		// Once the levels exist none of it allocates.
		e := sim.NewEngine(1)
		fn := func() {}
		cycle := func() {
			for _, d := range [...]sim.Time{0, 5, 500, 3000} {
				e.After(d, "bench", fn)
			}
			e.Cancel(e.After(3000, "watchdog", fn))
			e.Step()
			e.NextAt()
			e.After(0, "behind", fn)
			for i := 0; i < 4; i++ {
				e.Step()
			}
		}
		e.After(30e6, "far", fn)
		for i := 0; i < 256; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Fatalf("engine wheel cycle allocates %.1f/op, want 0", n)
		}
	})
	t.Run("engine-cancel", func(t *testing.T) {
		e := sim.NewEngine(1)
		fn := func() {}
		if n := testing.AllocsPerRun(200, func() {
			e.Cancel(e.At(e.Now()+5, "watchdog", fn))
			e.At(e.Now()+1, "bench", fn)
			e.Step()
		}); n != 0 {
			t.Fatalf("engine cancel cycle allocates %.1f/op, want 0", n)
		}
	})
	t.Run("netw-send", func(t *testing.T) {
		e := sim.NewEngine(1)
		nw := netw.New(e, netw.Config{})
		nw.RegisterObs(obs.NewRegistry())
		nw.Attach(1, &benchSink{})
		nw.Attach(2, &benchSink{})
		m := benchMessage()
		nw.Send(1, 2, m) // warm the delivery pool and counters
		for e.Step() {
		}
		if n := testing.AllocsPerRun(200, func() {
			nw.Send(1, 2, m)
			for e.Step() {
			}
		}); n != 0 {
			t.Fatalf("lossless send+deliver allocates %.1f/op, want 0", n)
		}
	})
	t.Run("netw-send-depth64", func(t *testing.T) {
		// Send → pump with 64 frames pending, past the calendar's first
		// growth: entries come off its free list, lists are filed at and
		// popped from without the table or the arena moving.
		cycle, _ := netwAtDepth(64)
		for i := 0; i < 256; i++ {
			cycle()
		}
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Fatalf("lossless send+deliver at depth 64 allocates %.1f/op, want 0", n)
		}
	})
	t.Run("netw-send-arq", func(t *testing.T) {
		// The ARQ round between two kernels under 5 % loss: master and
		// wire copies, acks, retransmission checks, retransmissions and
		// suppressed duplicates all run on warm pools.
		e, nw, ks := benchClusterOn(2, benchLossy)
		a, _ := benchEchoPair(t, ks, 0, 1)
		runRounds(t, e, a, 2048)
		before := nw.Stats()
		if n := testing.AllocsPerRun(1000, func() {
			runRounds(t, e, a, a.rounds+1)
		}); n != 0 {
			t.Fatalf("lossy cross-machine round trip allocates %.2f/op, want 0", n)
		}
		after := nw.Stats()
		if after.Retransmits == before.Retransmits || after.Duplicates == before.Duplicates {
			t.Fatalf("measured window saw %d retransmissions and %d suppressed duplicates, want both > 0",
				after.Retransmits-before.Retransmits, after.Duplicates-before.Duplicates)
		}
		// Endpoints that lend no pool fall back to heap clones and are
		// served all the same.
		e = sim.NewEngine(1)
		nw = netw.New(e, benchLossy)
		sink := &benchSink{}
		nw.Attach(1, &benchSink{})
		nw.Attach(2, sink)
		for i := 0; i < 200; i++ {
			nw.Send(1, 2, benchMessage())
		}
		e.Run()
		if sink.n != 200 || nw.InflightARQ() != 0 {
			t.Fatalf("bare endpoints: delivered %d of 200 frames, %d flights left", sink.n, nw.InflightARQ())
		}
	})
	t.Run("msg-encode", func(t *testing.T) {
		m := benchMessage()
		buf := make([]byte, 0, 256)
		if n := testing.AllocsPerRun(200, func() {
			buf = m.AppendWire(buf[:0])
			_ = m.WireSize()
		}); n != 0 {
			t.Fatalf("AppendWire+WireSize allocates %.1f/op, want 0", n)
		}
	})
	t.Run("kernel-local-roundtrip", func(t *testing.T) {
		// The tentpole invariant: a complete same-machine
		// send→deliver→receive→reply cycle between two native processes
		// touches no allocator once pools, rings, and the scheduler are
		// warm.
		e, ks := benchCluster(1)
		a, _ := benchEchoPair(t, ks, 0, 0)
		runRounds(t, e, a, 256) // warm envelope pool, rings, event arena
		if n := testing.AllocsPerRun(200, func() {
			runRounds(t, e, a, a.rounds+1)
		}); n != 0 {
			t.Fatalf("kernel local round trip allocates %.1f/op, want 0", n)
		}
	})
	t.Run("trace emit (deferred)", func(t *testing.T) {
		// Records of hot sites: a static site, scalar arguments, one
		// string that already exists, an enum named by its site. Rendering
		// waits for a reader, so with
		// the ring full (it grows lazily up to its capacity) an emit
		// touches no allocator, sink attached or not.
		e := sim.NewEngine(1)
		tr := trace.New(e.Now, 256)
		sunk := 0
		tr.SetSink(func(trace.Record) { sunk++ })
		pid, kind := addr.ProcessID{Creator: 2, Local: 9}, "wl-counter"
		emit := func() {
			tr.Log(2, benchSiteStep2, "", trace.PID(pid), trace.Machine(3), trace.Int(4096), trace.Int(250), trace.Int(600))
			tr.Log(2, benchSiteSpawn, kind, trace.PID(pid), trace.Int(4096), trace.Int(2))
			tr.Log(2, benchSiteStream, "", trace.PID(pid), trace.Name(msg.RegionSwappable), trace.Int(600), trace.Int(1), trace.Machine(3))
		}
		for i := 0; i < 256; i++ {
			emit()
		}
		if n := testing.AllocsPerRun(200, emit); n != 0 {
			t.Fatalf("deferred trace emit allocates %.1f/op, want 0", n)
		}
		recs := tr.Records()
		for i, want := range []string{"p2.9 -> m3 (program=4096B resident=250B swappable=600B)", "p2.9 kind=wl-counter image=4096B links=2", "p2.9 swappable: 600B in 1 packets -> m3"} {
			if r := recs[len(recs)-3+i]; r.Detail() != want {
				t.Fatalf("deferred record renders %q, want %q", r.Detail(), want)
			}
		}
	})
	t.Run("admin-encode", func(t *testing.T) {
		// A migration's administrative control plane: each of the nine
		// protocol messages' payloads encodes into a pooled envelope's
		// recycled Body with zero allocations. (PIDMachine covers
		// accept, refuse, established, and abort — same payload.)
		pool := msg.NewPool()
		pid := addr.ProcessID{Creator: 1, Local: 7}
		encoders := []func([]byte) []byte{
			msg.MigrateRequest{PID: pid, Dest: 2}.AppendTo,                           // 1 request
			msg.MigrateAsk{PID: pid, Program: 4, Resident: 1, Swappable: 1}.AppendTo, // 2 ask
			msg.PIDMachine{PID: pid, Machine: 2}.AppendTo,                            // 3 accept / 7 established
			msg.MoveDataReq{PID: pid, Region: msg.RegionResident, Xfer: 9}.AppendTo,  // 4-6 pulls
			msg.MigrateCleanup{PID: pid, Forwarded: 3}.AppendTo,                      // 8 cleanup
			msg.MigrateDone{PID: pid, Machine: 2, OK: true}.AppendTo,                 // 9 done
		}
		cycle := func() {
			for _, enc := range encoders {
				m := pool.Get()
				m.Body = enc(m.Body[:0])
				pool.Put(m)
			}
		}
		cycle() // warm Body capacity on the pooled envelope
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Fatalf("admin encode cycle allocates %.1f/op, want 0", n)
		}
	})
}
