package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// spec names one workload. The names and whys are mirrored in
// BENCHMARK.json (the self-test checks they agree).
type spec struct {
	name  string
	op    string // what one "op" is in ops_per_s / op_ns_p50 / allocs_per_op
	why   string
	build func(p params) (*instance, error)
}

// params are the generated inputs of one repetition: everything a workload
// varies comes from seed; scale shrinks the run for the self-test (1 is the
// recorded size).
type params struct {
	seed  int64
	scale float64
	// par overrides a workload's runtime with Shards: 2, ShardParallel:
	// true (the sim.group.par_speedup.openloop row); seq forces parallel
	// shards to run sequentially (traced reps need exact intervals).
	par, seq bool
}

func (p params) scaled(n int) int {
	v := int(float64(n) * p.scale)
	if v < 1 {
		v = 1
	}
	return v
}

// instance is a built, warmed cluster ready for its timed window.
type instance struct {
	c        *demosmp.Cluster
	machines int
	// The timed window is slices of equal simulated length up to horizon
	// and then (drain) more of them until the cluster is quiescent.
	horizon sim.Time
	drain   bool
	// progress counts workload ops so far; it is read after every slice
	// with the clock stopped, and must not allocate. ops is the final
	// count, taken from the bodies or kernels that completed the ops.
	progress, ops func() uint64
	// msgs counts user messages by asking the bodies that received them.
	msgs func() uint64
	// verify runs the hard correctness checks after the timed window.
	verify func(v *verdict)
}

var specs = []spec{
	{
		name: "pingpong", op: "round trip",
		why:   "closed loop, 8 Echo pairs on the default single-engine runtime: the steady-state per-message path does all the work; migration, spawn, shards and ARQ do none",
		build: func(p params) (*instance, error) { return buildPingpong(p, 0, false) },
	},
	{
		name: "pingpong-par", op: "round trip",
		why:   "the same inputs on 2 parallel shards: canonical pending heap, mailboxes and the per-round goroutine barrier do the work that pingpong bypasses",
		build: func(p params) (*instance, error) { return buildPingpong(p, 2, !p.seq) },
	},
	{
		name: "openloop-1000", op: "job",
		why:   "open loop, 1000 machines, Poisson job arrivals: spawn/exit, timers, a deep engine heap, per-machine footprint and the Go allocator do the work; almost no frames",
		build: buildOpenLoop,
	},
	{
		name: "migrate-storm", op: "migration",
		why: "scheduled migrations of stateful movers under timer-driven senders, lossless: migrate/move-data/forward/link-update, Snapshot/Restore and the ledger do the work",
		build: func(p params) (*instance, error) {
			return buildMovers(p, moverCfg{migrations: 12_000, migrateGap: 250, sendGap: 8000, ref: ref6})
		},
	},
	{
		name: "lossy-chatter", op: "message",
		why: "the same topology under 5% frame loss with dense senders and sparse migrations: the machine-anchored ARQ does the work the lossless workloads never touch",
		build: func(p params) (*instance, error) {
			return buildMovers(p, moverCfg{migrations: 400, migrateGap: 2500, sendGap: 300,
				net: netw.Config{LossRate: 0.05, RetransTimeout: 3000, MaxRetries: 200}, opIsMessage: true, ref: ref6Lossy})
		},
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// --- pingpong / pingpong-par -------------------------------------------------

const (
	pingpongWarm    = 10_000      // simulated µs before the timed window
	pingpongHorizon = 160_000_000 // simulated µs of timed window at scale 1
)

func buildPingpong(p params, shards int, parallel bool) (*instance, error) {
	const machines = 8
	c, err := demosmp.New(demosmp.Options{Machines: machines, Seed: p.seed,
		Shards: shards, ShardParallel: parallel})
	if err != nil {
		return nil, err
	}
	// The benchmark's own inputs come from a private stream, never from
	// the simulator's PRNG.
	r := rand.New(rand.NewSource(p.seed))
	payload := make([]byte, 32)
	r.Read(payload)
	var as, bs []*workload.Echo
	pair := func(am, bm int) error {
		a, b := &workload.Echo{}, &workload.Echo{}
		apid, err := c.Spawn(am, kernel.SpawnSpec{Body: a})
		if err != nil {
			return err
		}
		bpid, err := c.Spawn(bm, kernel.SpawnSpec{Body: b})
		if err != nil {
			return err
		}
		aAddr, bAddr := addr.At(apid, addr.MachineID(am)), addr.At(bpid, addr.MachineID(bm))
		if _, err := c.Kernel(am).MintLinkTo(link.Link{Addr: bAddr}, apid); err != nil {
			return err
		}
		if _, err := c.Kernel(bm).MintLinkTo(link.Link{Addr: aAddr}, bpid); err != nil {
			return err
		}
		as, bs = append(as, a), append(bs, b)
		return c.Kernel(am).GiveMessage(apid, bAddr, payload)
	}
	for m := 1; m < machines; m += 2 { // cross-machine pairs 1-2, 3-4, 5-6, 7-8
		if err := pair(m, m+1); err != nil {
			return nil, err
		}
	}
	// Every cross-machine pair also hosts one same-machine pair, on its odd
	// or its even machine. The seed picks which two of the four go on the
	// odd side, so every seed gives the same mix of work and round-robin
	// sharding stays balanced (two local pairs per shard).
	odd := [4]bool{true, true, false, false}
	for i := 3; i > 0; i-- {
		j := r.Intn(i + 1)
		odd[i], odd[j] = odd[j], odd[i]
	}
	for i, onOdd := range odd {
		m := 2*i + 2
		if onOdd {
			m--
		}
		if err := pair(m, m); err != nil {
			return nil, err
		}
	}
	c.RunFor(pingpongWarm)

	rounds := func() uint64 {
		var n uint64
		for _, a := range as {
			n += uint64(a.Rounds)
		}
		return n
	}
	horizon := sim.Time(float64(pingpongHorizon) * p.scale)
	if shards > 0 {
		// A sharded round covers at most one 500µs lookahead window, so
		// the same host time buys far less simulated time.
		horizon /= 3
	}
	return &instance{
		c: c, machines: machines, horizon: horizon,
		progress: rounds, ops: rounds,
		msgs: func() uint64 {
			n := rounds()
			for _, b := range bs {
				n += uint64(b.Rounds)
			}
			return n
		},
		verify: func(v *verdict) {
			// Liveness: run one more window long enough for several round
			// trips and require every pair to have advanced.
			before := make([]int, len(as))
			for i, a := range as {
				before[i] = a.Rounds
			}
			c.RunFor(20_000)
			for i, a := range as {
				v.check(a.Rounds > before[i], "pingpong: pair %d stopped advancing at %d rounds", i, a.Rounds)
			}
			ks := sumKernelStats(c)
			v.check(ks["DeadLetters"] == 0, "pingpong: %d dead letters", ks["DeadLetters"])
			v.check(ks["Crashes"] == 0, "pingpong: %d crashed bodies", ks["Crashes"])
		},
	}, nil
}

// --- openloop-1000 -----------------------------------------------------------

const (
	openLoopMachines   = 1000
	openLoopMeanGap    = 120
	openLoopPerMachine = 100
	openLoopChatN      = 20
)

func buildOpenLoop(p params) (*instance, error) {
	opts := demosmp.Options{Machines: openLoopMachines, Seed: p.seed, Shards: 1}
	if p.par {
		opts.Shards, opts.ShardParallel = 2, true
	}
	c, err := demosmp.New(opts)
	if err != nil {
		return nil, err
	}
	per := p.scaled(openLoopPerMachine)
	d := c.StartOpenLoop(workload.OpenLoop{
		Seed: p.seed, MeanGap: openLoopMeanGap, PerMachine: per, LongFraction: 0.1,
	})
	// The 8 sparse Sink/Chatter pairs of cmd/experiments/scale.go keep a
	// trickle of frames crossing the cluster for the whole run.
	var sinks []*workload.Sink
	step := openLoopMachines / 8
	for m := step; m <= openLoopMachines; m += step {
		s := &workload.Sink{}
		sink, err := c.Spawn(m, kernel.SpawnSpec{Body: s})
		if err != nil {
			return nil, err
		}
		_, err = c.Spawn(m-step+1, kernel.SpawnSpec{
			Body:  &workload.Chatter{N: openLoopChatN, Interval: 1500},
			Links: []link.Link{{Addr: addr.At(sink, addr.MachineID(m))}},
		})
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, s)
	}
	want := uint64(openLoopMachines * per)
	return &instance{
		c: c, machines: openLoopMachines,
		// Arrivals stop after per*MeanGap; the long jobs take about three
		// times as long again to finish. Slicing the whole of that into
		// timedSlices keeps a slice near 50 simulated µs: finer slices
		// would cut every lookahead window into more rounds than a plain
		// Run() makes and leave parallel shards little to share.
		horizon: sim.Time(4 * per * openLoopMeanGap), drain: true,
		progress: d.Spawned, ops: d.Spawned,
		msgs: func() uint64 {
			var n uint64
			for _, s := range sinks {
				n += uint64(len(s.Got))
			}
			return n
		},
		verify: func(v *verdict) {
			v.attempted += want
			v.check(d.Spawned() == want, "openloop: spawned %d jobs, want %d", d.Spawned(), want)
			v.failN(d.Failed(), "openloop: %d arrivals refused", d.Failed())
			ks := sumKernelStats(c)
			chatters := uint64(len(sinks))
			if exited := ks["Exited"]; exited != want+chatters {
				v.failN(want+chatters-exited, "openloop: %d processes exited, want %d", exited, want+chatters)
			}
			for i, s := range sinks {
				v.check(len(s.Got) == openLoopChatN, "openloop: sink %d got %d messages, want %d", i, len(s.Got), openLoopChatN)
			}
		},
	}, nil
}

// --- migrate-storm / lossy-chatter ------------------------------------------

// tickerKind is deliberately not in the cluster's registry: tickers never
// migrate.
const tickerKind = "bench-ticker"

// ticker is the storm's sender: a timer-driven body that sends a
// sequence-stamped 8-byte message on link 1 every Interval simulated µs
// until Total have gone out.
type ticker struct {
	First, Interval sim.Time
	Total, Sent     int
	armed           bool
	buf             [8]byte
}

func (t *ticker) Kind() string { return tickerKind }

func (t *ticker) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if !t.armed {
		t.armed = true
		ctx.SetTimer(t.First, 1)
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op == 0 || t.Sent >= t.Total {
			continue
		}
		binary.LittleEndian.PutUint64(t.buf[:], uint64(t.Sent))
		if err := ctx.Send(1, t.buf[:]); err != nil {
			return 0, proc.Status{State: proc.Crashed, Err: err}
		}
		t.Sent++
		if t.Sent < t.Total {
			ctx.SetTimer(t.Interval, 1)
		}
	}
}

func (t *ticker) Snapshot() ([]byte, error) { return nil, fmt.Errorf("bench: tickers do not migrate") }
func (t *ticker) Restore([]byte) error      { return fmt.Errorf("bench: tickers do not migrate") }

type moverCfg struct {
	migrations  int      // at scale 1
	migrateGap  sim.Time // one migration request every migrateGap µs
	sendGap     sim.Time // each sender sends every sendGap µs
	net         netw.Config
	opIsMessage bool // the workload's op is a delivered message, not a migration
	ref         section6
}

const (
	moverMachines = 16
	moverCount    = 32
	moverHop      = 3 // each migration moves a mover this many machines on
)

func buildMovers(p params, cfg moverCfg) (*instance, error) {
	// Completed migrations are counted as the source kernels report them
	// (Shards: 1, so one engine goroutine writes the counter).
	var done uint64
	c, err := demosmp.New(demosmp.Options{Machines: moverMachines, Seed: p.seed, Shards: 1, Net: cfg.net,
		Kernel: demosmp.KernelConfig{OnReport: func(r demosmp.MigrationReport) {
			if r.OK {
				done++
			}
		}}})
	if err != nil {
		return nil, err
	}
	migrations := p.scaled(cfg.migrations)
	horizon := sim.Time(migrations) * cfg.migrateGap
	perSender := int(horizon / cfg.sendGap)
	if perSender < 1 {
		perSender = 1
	}

	r := rand.New(rand.NewSource(p.seed))
	pids := make([]addr.ProcessID, moverCount)
	start := make([]int, moverCount) // 0-based machine index
	var tickers []*ticker
	for i := range pids {
		start[i] = i % moverMachines
		pid, err := c.Spawn(start[i]+1, kernel.SpawnSpec{Body: &workload.Counter{}})
		if err != nil {
			return nil, err
		}
		pids[i] = pid
		for j := 0; j < 2; j++ {
			t := &ticker{
				First:    1 + sim.Time(r.Intn(int(cfg.sendGap))),
				Interval: cfg.sendGap, Total: perSender,
			}
			_, err := c.Spawn(r.Intn(moverMachines)+1, kernel.SpawnSpec{
				Body:  t,
				Links: []link.Link{{Addr: addr.At(pid, addr.MachineID(start[i]+1))}},
			})
			if err != nil {
				return nil, err
			}
			tickers = append(tickers, t)
		}
	}

	// The migration schedule is a self-rescheduling chain on the (single)
	// shard engine: request k moves mover k%32 from where hop k/32 left it
	// to the machine three further on.
	eng := c.EngineOf(1)
	issued := 0
	var issue func()
	issue = func() {
		i, hop := issued%moverCount, issued/moverCount
		src := (start[i]+hop*moverHop)%moverMachines + 1
		dst := (src-1+moverHop)%moverMachines + 1
		c.Kernel(src).RequestMigrationOf(addr.At(pids[i], addr.MachineID(src)), addr.MachineID(dst))
		issued++
		if issued < migrations {
			eng.At(sim.Time(issued)*cfg.migrateGap+1, "bench:migrate", issue)
		}
	}
	eng.At(1, "bench:migrate", issue)

	sent := func() uint64 {
		var n uint64
		for _, t := range tickers {
			n += uint64(t.Sent)
		}
		return n
	}
	// seen asks every mover, wherever it now lives, how many messages it
	// counted; a mover that cannot be found counted none.
	seen := func() uint64 {
		var n uint64
		for _, pid := range pids {
			if m, ok := c.Locate(pid); ok {
				if b, ok := c.Kernel(int(m)).BodyOf(pid); ok {
					n += uint64(b.(*workload.Counter).Seen)
				}
			}
		}
		return n
	}
	completed := func() uint64 { return done }
	inst := &instance{
		c: c, machines: moverMachines, horizon: horizon, drain: true,
		progress: completed, ops: completed, msgs: seen,
	}
	if cfg.opIsMessage {
		inst.progress, inst.ops = sent, seen
	}
	inst.verify = func(v *verdict) {
		want := uint64(len(tickers) * perSender)
		v.attempted += want + uint64(migrations)
		v.check(sent() == want, "movers: senders sent %d messages, want %d", sent(), want)
		if got := seen(); got != want {
			// Lost and duplicated deliveries both count as failed ops.
			v.failN(absDiff(got, want), "movers: receivers counted %d messages, senders sent %d", got, want)
		}
		ks := sumKernelStats(c)
		ns := c.NetStats()
		v.failN(ks["DeadLetters"], "movers: %d dead letters", ks["DeadLetters"])
		v.failN(ns.Dead, "movers: %d frames abandoned by the network", ns.Dead)
		v.check(ks["Crashes"] == 0, "movers: %d crashed bodies", ks["Crashes"])
		checkSection6(v, c, migrations, cfg.ref)
		if want := cfg.ref.framesPerForward; want > 0 { // lossless only: retransmits blur frame counts
			extra := probeForwardFrames(c, pids[0])
			v.model["model.frames_per_forward"] = float64(extra)
			v.check(extra == want, "§6: a forwarded message cost %+d frames, paper says +%d", extra, want)
		}
	}
	return inst, nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
