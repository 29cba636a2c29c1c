package kernel_test

// Races around OpMigrateAbort. The abort message has no sequence number and
// no handshake: it can arrive twice, arrive after the copy it names was
// discarded or committed, or cross the final cleanup/MigrateDone pair in
// flight. Each race has one correct outcome — exactly one live copy of the
// process.
//
// The races a real schedule of one migration reaches — a late Abort that
// finds the destination's copy already discarded, a lost Abort that the
// destination's second Established draws again — are named schedules of
// internal/chaos's explorer. The two races here stay as hand-forced tests
// because their message is one no schedule of the explorer's scene sends: an
// Abort from aborterBody, aimed at a process that is not migrating, at a
// cleanly migrated copy, or at a copy whose source committed. A real kernel
// sends an Abort only for the half it is discarding, or in answer to an
// Established for a copy the process went on without, so the gun is the only
// way to get one there.

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/trace"
)

// aborterBody is a privileged body that fires one OpMigrateAbort at a
// kernel each time it is poked — the tests' stale/duplicate abort gun.
type aborterBody struct {
	Target addr.ProcessID
	Claim  addr.MachineID // machine the abort claims to speak for
	Kernel addr.MachineID // kernel to shoot at
}

func (b *aborterBody) Kind() string { return "aborter" }

func (b *aborterBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		if _, ok := ctx.Recv(); !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		l, err := ctx.MintLink(link.Link{Addr: addr.KernelAddr(b.Kernel)})
		if err != nil {
			continue
		}
		pm := msg.PIDMachine{PID: b.Target, Machine: b.Claim}
		_ = ctx.SendOp(l, msg.OpMigrateAbort, pm.Encode())
		ctx.DestroyLink(l)
	}
}

func (b *aborterBody) Snapshot() ([]byte, error) { return proc.Snapshot(b) }

func (b *aborterBody) Restore(data []byte) error { return proc.Restore(b, data) }

// arqCfg is the network used by the partition race: frames queue as
// retransmissions while a pair is severed and flow again after Heal.
func arqCfg() netw.Config {
	return netw.Config{LossRate: 0.0001, RetransTimeout: 3000, MaxRetries: 500}
}

// TestDuplicateAndStaleAbortsAreNoOps: aborts aimed at a process that is
// not migrating, at a freshly migrated copy, and at the forwarder it left
// behind must all fall through without damage.
func TestDuplicateAndStaleAbortsAreNoOps(t *testing.T) {
	c := newTCNet(t, 3, netw.Config{}, nil)
	pid, err := c.k(2).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		t.Fatal(err)
	}
	gun, _ := c.k(3).Spawn(kernel.SpawnSpec{
		Body: &aborterBody{Target: pid, Claim: 3, Kernel: 2}, Privileged: true})
	c.runFor(2_000)

	// Two aborts for a process that never migrated: duplicate no-ops.
	_ = c.k(3).GiveMessage(gun, addr.KernelAddr(3), []byte("fire"))
	_ = c.k(3).GiveMessage(gun, addr.KernelAddr(3), []byte("fire"))
	c.run()
	if info, ok := c.k(2).Process(pid); !ok || info.State == kernel.StateForwarder {
		t.Fatal("stale abort destroyed a process that was not migrating")
	}
	if s := c.k(2).Stats(); s.MigrationsFailed != 0 {
		t.Fatalf("MigrationsFailed = %d after no-op aborts", s.MigrationsFailed)
	}

	// Migrate for real, then shoot both the new home and the forwarder.
	c.migrate(3, pid, 2, 1)
	c.run()
	if info, ok := c.k(1).Process(pid); !ok || info.State == kernel.StateForwarder {
		t.Fatal("migration 2->1 did not complete")
	}
	gunHome, _ := c.k(3).Spawn(kernel.SpawnSpec{
		Body: &aborterBody{Target: pid, Claim: 2, Kernel: 1}, Privileged: true})
	_ = c.k(3).GiveMessage(gunHome, addr.KernelAddr(3), []byte("fire"))
	_ = c.k(3).GiveMessage(gun, addr.KernelAddr(3), []byte("fire")) // at the forwarder
	c.run()

	if info, ok := c.k(1).Process(pid); !ok || info.State == kernel.StateForwarder {
		t.Fatal("stale abort destroyed a cleanly migrated copy")
	}
	if info, ok := c.k(2).Process(pid); !ok || info.State != kernel.StateForwarder {
		t.Fatal("stale abort destroyed the forwarding address")
	}
	if s := c.k(1).Stats(); s.MigrationsFailed != 0 {
		t.Fatalf("new home recorded %d failed migrations", s.MigrationsFailed)
	}

	// Traffic through the stale address still lands exactly once.
	c.k(3).GiveMessageTo(addr.At(pid, 2), addr.KernelAddr(3), []byte("hit"))
	c.run()
	b, ok := c.k(1).BodyOf(pid)
	if !ok {
		t.Fatal("process body missing on m1")
	}
	if got := b.(*counterBody).Count; got != 1 {
		t.Fatalf("counted %d, want 1", got)
	}
}

// TestPartitionedDestinationAsksUntilCleanup: the source commits (forwarder
// installed, MigrateDone sent) but its cleanup message is trapped by a
// partition. Only the source decides, so while the partition holds the
// destination keeps its copy incoming and its watchdog sends Established
// again instead of committing. After Heal the late cleanup commits the copy
// once; the Established re-sends reach the forwarder, which answers each with
// message 8 again, and the committed copy ignores them. A stale abort
// afterwards is a no-op. The stale abort is the gun's: a source that
// committed never sends one.
func TestPartitionedDestinationAsksUntilCleanup(t *testing.T) {
	c := newTCNet(t, 3, arqCfg(),
		func(cfg *kernel.Config) { cfg.MigrateTimeout = 200_000 })
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		t.Fatal(err)
	}
	gun, _ := c.k(3).Spawn(kernel.SpawnSpec{
		Body: &aborterBody{Target: pid, Claim: 1, Kernel: 2}, Privileged: true})
	c.runFor(2_000)

	// Sever 1-2 the instant the source has committed (step 7 done) but
	// before message 8 can leave: the cleanup goes into retransmission.
	cut := false
	c.k(1).SetFaultHook(func(kp kernel.KillPoint, _ addr.ProcessID) {
		if kp == kernel.KPSourceCommitted && !cut {
			cut = true
			c.net.Partition(1, 2)
		}
	})
	c.migrate(3, pid, 1, 2)

	c.runFor(450_000)
	if !cut {
		t.Fatal("migration never reached KPSourceCommitted")
	}
	if info, ok := c.k(2).Process(pid); !ok || info.State != kernel.StateIncoming {
		t.Fatalf("m2's copy is %+v while the cleanup is trapped, want it incoming", info)
	}
	if n := c.k(2).Stats().AdminSent[msg.OpMigrateEstablished]; n < 2 {
		t.Fatalf("m2 sent Established %d times while the cleanup was trapped, want it to ask again", n)
	}
	if s := c.k(1).Stats(); s.MigrationsOut != 1 {
		t.Fatalf("source MigrationsOut = %d, want 1 (it committed before the partition)", s.MigrationsOut)
	}

	// Heal: the late cleanup arrives and commits the copy, once.
	c.net.Heal(1, 2)
	c.run()
	restarts := 0
	for _, ev := range c.tr.Events(trace.CatMigrate) {
		if ev == "step8-restart" {
			restarts++
		}
	}
	if info, ok := c.k(2).Process(pid); !ok || info.State == kernel.StateIncoming || restarts != 1 {
		t.Fatalf("m2's copy is %+v after %d step-8 restarts, want it committed once", info, restarts)
	}

	// A stale abort after MigrateDone finds no half on m2: ignored.
	_ = c.k(3).GiveMessage(gun, addr.KernelAddr(3), []byte("fire"))
	c.run()
	if info, ok := c.k(2).Process(pid); !ok || info.State == kernel.StateForwarder {
		t.Fatal("stale abort destroyed a cleanly-committed copy after late cleanup")
	}
	if s := c.k(2).Stats(); s.MigrationsFailed != 0 {
		t.Fatalf("destination recorded %d failed migrations", s.MigrationsFailed)
	}
	if info, ok := c.k(1).Process(pid); !ok || info.State != kernel.StateForwarder {
		t.Fatal("source is not a forwarder after committing")
	}
	done, n := c.k(3).DoneMigrations()
	if n != 1 || !done.OK {
		t.Fatalf("requester saw %d completions, last %+v, want one OK", n, done)
	}

	// Traffic through the stale source address reaches the survivor.
	c.k(3).GiveMessageTo(addr.At(pid, 1), addr.KernelAddr(3), []byte("hit"))
	c.run()
	b, ok := c.k(2).BodyOf(pid)
	if !ok {
		t.Fatal("process body missing on m2")
	}
	if got := b.(*counterBody).Count; got != 1 {
		t.Fatalf("counted %d, want 1", got)
	}
}
