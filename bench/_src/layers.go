package main

import (
	"fmt"
	"runtime"
	"time"

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

// Isolated call rows: each times one layer's public functions alone, from
// outside the program, hand-assembled the way cmd/experiments/bench.go
// assembles its rows and with the obs plane attached the way core.New
// attaches it. They do not depend on the workload. Every row is best of 3:
// a call's cost has a floor and host noise only adds to it.

// timeIt returns the best ns per iteration of fn(iters) over 3 runs.
func timeIt(iters int, fn func(n int)) float64 {
	best := 0.0
	for r := 0; r < 3; r++ {
		start := time.Now()
		fn(iters)
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// allocsPer returns heap allocations per iteration of fn(iters).
func allocsPer(iters int, fn func(n int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn(iters)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

type nopEndpoint struct{}

func (nopEndpoint) DeliverFrame(*msg.Message) {}

// layerRows measures every isolated row. scale shrinks iteration counts for
// the self-test.
func layerRows(scale float64) (map[string]float64, error) {
	n := func(iters int) int { return max(int(float64(iters)*scale), 64) }
	out := map[string]float64{}
	nop := func() {}

	// sim: schedule+fire at two heap depths, the watchdog pattern, and one
	// barrier round of a 2-engine group.
	for _, d := range []struct {
		name  string
		depth int
	}{{"sim.schedule_fire_ns.d64", 64}, {"sim.schedule_fire_ns.d16k", 16384}} {
		e := sim.NewEngine(1)
		for i := 0; i < d.depth; i++ {
			e.At(sim.Time(i), "fill", nop)
		}
		depth := sim.Time(d.depth)
		out[d.name] = timeIt(n(1_000_000), func(n int) {
			for i := 0; i < n; i++ {
				e.At(e.Now()+depth, "bench", nop)
				e.Step()
			}
		})
	}
	{
		// The kernel's migrate watchdog: armed far ahead, cancelled at the
		// next protocol step. A cancelled entry stays in the heap until the
		// clock reaches it, so in steady state this runs with 16k of them.
		const timeout = 16384
		e := sim.NewEngine(1)
		rearm := func(n int) {
			for i := 0; i < n; i++ {
				e.Cancel(e.After(timeout, "watchdog", nop))
				e.At(e.Now()+1, "bench", nop)
				e.Step()
			}
		}
		rearm(timeout)
		out["sim.schedule_cancel_ns"] = timeIt(n(1_000_000), rearm)
	}
	for _, g := range []struct {
		name     string
		parallel bool
	}{{"sim.group_round_ns.seq", false}, {"sim.group_round_ns.par", true}} {
		engines := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(1)}
		for _, e := range engines {
			e := e
			var tick func()
			tick = func() { e.After(1, "tick", tick) }
			e.At(1, "tick", tick)
		}
		grp := &sim.Group{Engines: engines, Lookahead: 1, Parallel: g.parallel}
		var now sim.Time
		out[g.name] = timeIt(n(200_000), func(n int) {
			now += sim.Time(n)
			grp.RunUntil(now)
		})
	}

	// netw: Send + drain to a no-op endpoint on the three lossless/lossy
	// paths the workloads use.
	for _, p := range []struct {
		name  string
		canon bool
		cfg   netw.Config
	}{
		{"netw.send_deliver_ns.inline", false, netw.Config{}},
		{"netw.send_deliver_ns.canon", true, netw.Config{}},
		{"netw.send_deliver_ns.arq", true, netw.Config{LossRate: 0.05, RetransTimeout: 3000, MaxRetries: 200}},
	} {
		e := sim.NewEngine(1)
		nw := netw.New(e, p.cfg)
		nw.RegisterObs(obs.NewRegistry())
		nw.Attach(1, nopEndpoint{})
		nw.Attach(2, nopEndpoint{})
		if p.canon {
			nw.SetCanonical(2, 1, func(addr.MachineID) bool { return true }, func(netw.RemoteFrame) {})
		}
		m := userMessage()
		out[p.name] = timeIt(n(500_000), func(n int) {
			for i := 0; i < n; i++ {
				nw.Send(1, 2, m)
				for e.Step() {
				}
			}
		})
	}

	// msg: wire encode into a reused buffer, and an envelope pool cycle.
	{
		m := userMessage()
		buf := make([]byte, 0, 256)
		out["msg.encode_ns"] = timeIt(n(5_000_000), func(n int) {
			for i := 0; i < n; i++ {
				buf = m.AppendWire(buf[:0])
				sinkInt += m.WireSize()
			}
		})
		pool := msg.NewPool()
		out["msg.pool_get_put_ns"] = timeIt(n(5_000_000), func(n int) {
			for i := 0; i < n; i++ {
				pool.Put(pool.Get())
			}
		})
	}

	if err := kernelRows(out, n); err != nil {
		return nil, err
	}

	// workload: the gob round trip every Counter migration pays.
	{
		c := &workload.Counter{Seen: 12345}
		var err error
		out["workload.counter_snapshot_restore_ns"] = timeIt(n(20_000), func(n int) {
			for i := 0; i < n && err == nil; i++ {
				var b []byte
				if b, err = c.Snapshot(); err == nil {
					err = (&workload.Counter{}).Restore(b)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("counter snapshot/restore: %w", err)
		}
	}

	// trace and obs: the instrumentation core.New always wires.
	{
		var now sim.Time
		tr := trace.New(func() sim.Time { return now }, 64)
		out["trace.emit_ns"] = timeIt(n(2_000_000), func(n int) {
			for i := 0; i < n; i++ {
				tr.Emit(1, trace.CatProc, "spawn", "bench")
			}
		})
		h := obs.NewRegistry().Histogram("bench")
		out["obs.observe_ns"] = timeIt(n(5_000_000), func(n int) {
			for i := 0; i < n; i++ {
				h.Observe(uint64(i))
			}
		})
	}

	// core: building a 1000-machine cluster, and snapshotting its registry.
	{
		var c *demosmp.Cluster
		var err error
		out["core.new_us_per_machine.1000m"] = timeIt(1, func(int) {
			c, err = demosmp.New(demosmp.Options{Machines: 1000, Seed: 1, Shards: 1})
		}) / 1e3 / 1000
		if err != nil {
			return nil, err
		}
		out["obs.snapshot_ms.1000m"] = timeIt(1, func(int) {
			sinkInt += len(c.ObsSnapshot().Metrics)
		}) / 1e6
	}
	return out, nil
}

var sinkInt int

func userMessage() *msg.Message {
	return &msg.Message{
		Kind: msg.KindUser,
		From: addr.At(addr.ProcessID{Creator: 1, Local: 1}, 1),
		To:   addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2),
		Body: make([]byte, 32),
	}
}

// bareCluster hand-assembles n kernels on one engine and one network, with
// the obs plane attached as core.New attaches it.
func bareCluster(n int, onReport func(kernel.MigrationReport)) (*sim.Engine, []*kernel.Kernel) {
	e := sim.NewEngine(1)
	nw := netw.New(e, netw.Config{})
	reg := workload.Registry()
	oreg, oled := obs.NewRegistry(), obs.NewLedger()
	ks := make([]*kernel.Kernel, n)
	for i := range ks {
		ks[i] = kernel.New(addr.MachineID(i+1), e, nw, kernel.Config{Registry: reg, OnReport: onReport})
		ks[i].SetObs(oreg, oled)
	}
	nw.RegisterObs(oreg)
	return e, ks
}

var errIdle = fmt.Errorf("engine went idle before the measured operation completed")

func kernelRows(out map[string]float64, n func(int) int) error {
	// Echo pair round trip, same machine and across two machines.
	for _, r := range []struct {
		name   string
		am, bm int
	}{{"kernel.local_rt_ns", 0, 0}, {"kernel.remote_rt_ns", 0, 1}} {
		e, ks := bareCluster(r.bm+1, nil)
		a, err := echoPair(ks, r.am, r.bm)
		if err != nil {
			return err
		}
		run := func(n int) {
			for target := a.Rounds + n; a.Rounds < target && e.Step(); {
			}
		}
		run(256)
		before := a.Rounds
		iters := n(300_000)
		out[r.name] = timeIt(iters, run)
		if a.Rounds != before+3*iters {
			return fmt.Errorf("%s: %w", r.name, errIdle)
		}
	}

	// Stale send through a forwarder: m1 -> m2 (forwarder) -> m3.
	{
		e, ks := bareCluster(3, nil)
		pid, err := ks[1].Spawn(kernel.SpawnSpec{Body: &workload.Counter{}})
		if err != nil {
			return err
		}
		ks[1].RequestMigrationOf(addr.At(pid, 2), 3)
		for e.Step() {
		}
		body, ok := ks[2].BodyOf(pid)
		if !ok {
			return fmt.Errorf("kernel.forward_ns: process did not arrive on m3")
		}
		sink := body.(*workload.Counter)
		from := addr.At(addr.ProcessID{Creator: 1, Local: 99}, 1)
		payload := []byte("fwd")
		idle := false
		out["kernel.forward_ns"] = timeIt(n(100_000), func(n int) {
			for i := 0; i < n && !idle; i++ {
				want := sink.Seen + 1
				ks[0].GiveMessageTo(addr.At(pid, 2), from, payload)
				for sink.Seen < want && !idle {
					idle = !e.Step()
				}
			}
		})
		if idle {
			return fmt.Errorf("kernel.forward_ns: %w", errIdle)
		}
	}

	// Full 8-step migration bounced between two kernels: a stateless body
	// (pure protocol and transfer cost) and a stateful one (gob snapshot).
	for _, r := range []struct {
		name string
		body proc.Body
	}{{"null", &workload.Null{}}, {"counter", &workload.Counter{}}} {
		done := 0
		e, ks := bareCluster(2, func(rep kernel.MigrationReport) {
			if rep.OK {
				done++
			}
		})
		pid, err := ks[0].Spawn(kernel.SpawnSpec{Body: r.body})
		if err != nil {
			return err
		}
		cur, idle := 0, false
		bounce := func(n int) {
			for i := 0; i < n && !idle; i++ {
				dst := 1 - cur
				ks[cur].RequestMigrationOf(addr.At(pid, ks[cur].Machine()), ks[dst].Machine())
				for target := done + 1; done < target && !idle; {
					idle = !e.Step()
				}
				for e.Step() { // drain the cleanup/restart tail
				}
				cur = dst
			}
		}
		bounce(2) // warm both kernels' pools
		out["kernel.migrate_ns."+r.name] = timeIt(n(5_000), bounce)
		if r.name == "counter" {
			out["kernel.migrate_allocs.counter"] = allocsPer(n(5_000), bounce)
		}
		if idle {
			return fmt.Errorf("kernel.migrate_ns.%s: %w", r.name, errIdle)
		}
	}

	// Spawn of an open-loop job, run to its exit.
	{
		e, ks := bareCluster(1, nil)
		var err error
		spawnExit := func(n int) {
			for i := 0; i < n && err == nil; i++ {
				_, err = ks[0].Spawn(kernel.SpawnSpec{Body: &workload.Job{Service: 1}})
				e.Run()
			}
		}
		spawnExit(64)
		out["kernel.spawn_exit_ns"] = timeIt(n(100_000), spawnExit)
		out["kernel.spawn_exit_allocs"] = allocsPer(n(100_000), spawnExit)
		if err != nil {
			return fmt.Errorf("kernel.spawn_exit_ns: %w", err)
		}
	}
	return nil
}

// echoPair spawns two Echo bodies on kernels am and bm, links them both
// ways and kicks the first message; a.Rounds then counts round trips.
func echoPair(ks []*kernel.Kernel, am, bm int) (*workload.Echo, error) {
	a, b := &workload.Echo{}, &workload.Echo{}
	apid, err := ks[am].Spawn(kernel.SpawnSpec{Body: a})
	if err != nil {
		return nil, err
	}
	bpid, err := ks[bm].Spawn(kernel.SpawnSpec{Body: b})
	if err != nil {
		return nil, err
	}
	if _, err := ks[am].MintLinkTo(link.Link{Addr: addr.At(bpid, ks[bm].Machine())}, apid); err != nil {
		return nil, err
	}
	if _, err := ks[bm].MintLinkTo(link.Link{Addr: addr.At(apid, ks[am].Machine())}, bpid); err != nil {
		return nil, err
	}
	return a, ks[am].GiveMessage(apid, addr.At(bpid, ks[bm].Machine()), []byte("ping"))
}
