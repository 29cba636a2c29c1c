package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
	"demosmp/internal/workload"
)

// newTCNet is newTC with a custom network configuration.
func newTCNet(t *testing.T, machines int, ncfg netw.Config, mut func(*kernel.Config)) *tc {
	t.Helper()
	eng := sim.NewEngine(7)
	net := netw.New(eng, ncfg)
	tr := trace.New(eng.Now, 0)
	reg := proc.NewRegistry()
	reg.Register("counter", func() proc.Body { return &counterBody{} })
	reg.Register("blackhole", func() proc.Body { return &blackholeBody{} })
	reg.Register("aborter", func() proc.Body { return &aborterBody{} })
	c := &tc{t: t, eng: eng, net: net, tr: tr, ks: map[addr.MachineID]*kernel.Kernel{}}
	for i := 1; i <= machines; i++ {
		cfg := kernel.Config{Tracer: tr, Registry: reg}
		for m := 1; m <= machines; m++ {
			cfg.Machines = append(cfg.Machines, addr.MachineID(m))
		}
		if mut != nil {
			mut(&cfg)
		}
		c.ks[addr.MachineID(i)] = kernel.New(addr.MachineID(i), eng, net, cfg)
	}
	return c
}

// TestMigrationSurvivesLossyNetwork: with 15% frame loss, the ARQ layer
// still gives the kernels the paper's guarantee ("any message sent will
// eventually be delivered") and the migration completes correctly.
func TestMigrationSurvivesLossyNetwork(t *testing.T) {
	c := newTCNet(t, 3,
		netw.Config{LossRate: 0.15, RetransTimeout: 3000, MaxRetries: 200}, nil)
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Program: workload.CPUBoundSized(200000, 8<<10)})
	if err != nil {
		t.Fatal(err)
	}
	c.runFor(5000)
	c.migrate(3, pid, 1, 2)
	c.run()
	e, m := c.exitOf(pid)
	if m != 2 {
		t.Fatalf("finished on m%d, want m2", m)
	}
	if e.Code != workload.CPUBoundResult(200000) {
		t.Fatalf("result %d corrupted by lossy migration", e.Code)
	}
	if c.net.Stats().Retransmits == 0 {
		t.Fatal("test exercised no retransmissions; raise the loss rate")
	}
}

// TestMessagesExactlyOnceUnderLossAndMigration: a counter server migrates
// while clients hammer it over a lossy network; every message is counted
// exactly once.
func TestMessagesExactlyOnceUnderLossAndMigration(t *testing.T) {
	c := newTCNet(t, 3,
		netw.Config{LossRate: 0.1, RetransTimeout: 3000, MaxRetries: 200}, nil)
	server, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	sink := &blackholeBody{}
	sinkPID, _ := c.k(3).Spawn(kernel.SpawnSpec{Body: sink})
	const N = 20
	for i := 0; i < N; i++ {
		c.k(3).GiveMessageTo(addr.At(server, 1), addr.At(sinkPID, 3),
			[]byte("hit"), c.linkTo(sinkPID, 3, 0))
		if i == 5 {
			c.migrate(3, server, 1, 2)
		}
		c.runFor(2000)
	}
	c.run()
	body, ok := c.k(2).BodyOf(server)
	if !ok {
		t.Fatal("server not on m2")
	}
	if got := body.(*counterBody).Count; got != N {
		t.Fatalf("server counted %d, want exactly %d", got, N)
	}
	// Every hit produced exactly one reply.
	if len(sink.Got) != N {
		t.Fatalf("sink got %d replies, want %d", len(sink.Got), N)
	}
}

// TestDestinationCrashMidMigration: the destination dies during the state
// transfer. The source's watchdog fires, the migration aborts, and the
// process finishes — correctly — where it was.
func TestDestinationCrashMidMigration(t *testing.T) {
	c := newTC(t, 3, func(cfg *kernel.Config) { cfg.MigrateTimeout = 500_000 })
	// A big image so the transfer takes hundreds of milliseconds.
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Program: workload.CPUBoundSized(300000, 256<<10)})
	if err != nil {
		t.Fatal(err)
	}
	c.runFor(3000)
	c.migrate(3, pid, 1, 2)
	c.runFor(50000) // transfer under way
	if _, busy := c.k(2).Process(pid); !busy {
		t.Fatal("transfer not in progress; crash timing wrong")
	}
	c.k(2).Crash()
	c.run()
	e, m := c.exitOf(pid)
	if m != 1 {
		t.Fatalf("finished on m%d, want restored on m1", m)
	}
	if e.Code != workload.CPUBoundResult(300000) {
		t.Fatalf("result %d corrupted by aborted migration", e.Code)
	}
	if s := c.k(1).Stats(); s.MigrationsFailed == 0 {
		t.Fatal("no failed migration recorded")
	}
	// The driver was told the migration failed.
	done, n := c.k(3).DoneMigrations()
	if n != 1 || done.OK {
		t.Fatalf("driver notification: %d, last %+v", n, done)
	}
}

// TestSourceCrashMidMigration: the source dies during the transfer. The
// destination's watchdog discards the half-built state — the process is
// lost with its machine (no split brain, no zombie placeholder).
func TestSourceCrashMidMigration(t *testing.T) {
	c := newTC(t, 3, func(cfg *kernel.Config) { cfg.MigrateTimeout = 500_000 })
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Program: workload.CPUBoundSized(300000, 256<<10)})
	c.runFor(3000)
	c.migrate(3, pid, 1, 2)
	c.runFor(50000)
	c.k(1).Crash()
	c.run()
	if _, ok := c.k(2).Process(pid); ok {
		t.Fatal("destination kept a zombie placeholder after source crash")
	}
	if s := c.k(2).Stats(); s.MigrationsFailed == 0 {
		t.Fatal("destination did not record the failure")
	}
	if c.k(2).MemUsed() != 0 {
		t.Fatalf("leaked %d bytes of reserved memory", c.k(2).MemUsed())
	}
}

// TestFrozenProcessRestoredMessagesIntact: an abort mid-migration must
// redeliver messages held on the frozen queue.
func TestAbortRedeliversHeldMessages(t *testing.T) {
	c := newTC(t, 3, func(cfg *kernel.Config) { cfg.MigrateTimeout = 300_000 })
	body := &blackholeBody{}
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Body: body})
	c.runFor(1000)
	c.k(2).Crash() // destination is already dead
	c.migrate(3, pid, 1, 2)
	c.runFor(50000) // process frozen, migration stuck
	for i := 0; i < 3; i++ {
		c.k(1).GiveMessage(pid, addr.KernelAddr(3), []byte(fmt.Sprintf("held-%d", i)))
	}
	c.run() // watchdog fires, process restored
	if len(body.Got) != 3 {
		t.Fatalf("held messages lost in abort: %v", body.Got)
	}
}

// TestRandomMigrationScheduleProperty: migrating a computation at random
// times through a random machine sequence never changes its result.
func TestRandomMigrationScheduleProperty(t *testing.T) {
	want := workload.CPUBoundResult(150000)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newTC(t, 4, nil)
		pid, err := c.k(1).Spawn(kernel.SpawnSpec{Program: workload.CPUBound(150000)})
		if err != nil {
			return false
		}
		at := 1
		hops := 1 + rng.Intn(4)
		for h := 0; h < hops; h++ {
			c.runFor(sim.Time(1000 + rng.Intn(300000)))
			dest := 1 + rng.Intn(4)
			c.migrate(at, pid, at, dest)
			c.run()
			if cur, ok := findMachine(c, pid); ok {
				at = cur
			}
		}
		c.run()
		e, _ := c.exitOf(pid)
		return e.Code == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}
}

func findMachine(c *tc, pid addr.ProcessID) (int, bool) {
	for m, k := range c.ks {
		if info, ok := k.Process(pid); ok && info.State != kernel.StateForwarder {
			return int(m), true
		}
	}
	return 0, false
}

// TestServerMigrationDuringTrafficProperty: a client/server exchange with a
// randomly timed server migration always completes all rounds.
func TestServerMigrationDuringTrafficProperty(t *testing.T) {
	f := func(when uint32) bool {
		c := newTC(t, 3, nil)
		server, _ := c.k(1).Spawn(kernel.SpawnSpec{Program: workload.EchoServer(15)})
		client, _ := c.k(3).Spawn(kernel.SpawnSpec{
			Program: workload.RequestClient(15),
			Links:   []link.Link{{Addr: addr.At(server, 1)}},
		})
		c.runFor(sim.Time(when % 60000))
		c.migrate(2, server, 1, 2)
		c.run()
		e, _ := c.exitOf(client)
		return e.Code == 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryAccountingAcrossMigrations: memory in use returns to zero on
// both machines after the process migrates away and exits.
func TestMemoryAccountingAcrossMigrations(t *testing.T) {
	c := newTC(t, 2, nil)
	pid, _ := c.k(1).Spawn(kernel.SpawnSpec{Program: workload.CPUBoundSized(50000, 32<<10)})
	if c.k(1).MemUsed() == 0 {
		t.Fatal("no memory accounted at spawn")
	}
	c.runFor(2000)
	c.migrate(2, pid, 1, 2)
	c.run()
	c.exitOf(pid)
	if u := c.k(1).MemUsed(); u != 0 {
		t.Fatalf("source leaked %d bytes", u)
	}
	if u := c.k(2).MemUsed(); u != 0 {
		t.Fatalf("destination leaked %d bytes after exit", u)
	}
}

// TestMemCapacityRefusal: a destination without room refuses (§3.2), and
// the process keeps running at the source.
func TestMemCapacityRefusal(t *testing.T) {
	c := newTC(t, 2, func(cfg *kernel.Config) { cfg.MemCapacity = 40 << 10 })
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Program: workload.CPUBoundSized(100000, 32<<10)})
	if err != nil {
		t.Fatal(err)
	}
	// Fill machine 2 so the incoming 32 KiB cannot fit.
	if _, err := c.k(2).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}, ImageSize: 32 << 10}); err != nil {
		t.Fatal(err)
	}
	c.runFor(2000)
	c.migrate(2, pid, 1, 2)
	c.run()
	e, m := c.exitOf(pid)
	if m != 1 || e.Code != workload.CPUBoundResult(100000) {
		t.Fatalf("refused migration broke the process: code %d on m%d", e.Code, m)
	}
	if s := c.k(2).Stats(); s.MigrationsRefused != 1 {
		t.Fatalf("refusals = %d", s.MigrationsRefused)
	}
}
