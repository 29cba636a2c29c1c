package kernel_test

// Crash/restart recovery and the §4 search escape hatch: a restarted kernel
// has lost every forwarding address it held, so messages that relied on one
// must either reroute toward the pid's creator, trigger a broadcast search,
// or die as accounted dead letters.

import (
	"fmt"
	"slices"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
)

// TestRestartWipesAndRevives: a crash wipes volatile state with full
// accounting; Restart brings the machine back and revives exactly the
// processes that had a checkpoint in stable storage.
func TestRestartWipesAndRevives(t *testing.T) {
	c := newTC(t, 2, nil)
	saved, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}})
	if err != nil {
		t.Fatal(err)
	}
	c.runFor(2_000)

	if err := c.k(1).Restart(); err == nil {
		t.Fatal("Restart on a live kernel must fail")
	}
	if err := c.k(1).SaveCheckpoint(saved); err != nil {
		t.Fatal(err)
	}
	c.k(1).Crash()
	if err := c.k(1).Restart(); err != nil {
		t.Fatal(err)
	}

	if got := c.k(1).Restarts(); got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
	if _, ok := c.k(1).Process(saved); !ok {
		t.Fatal("checkpointed process was not revived")
	}
	if _, ok := c.k(1).Process(doomed); ok {
		t.Fatal("uncheckpointed process survived the crash")
	}
	lost := c.k(1).LostPIDs()
	if len(lost) != 1 || lost[0] != doomed {
		t.Fatalf("LostPIDs = %v, want exactly [%v]", lost, doomed)
	}
	s := c.k(1).Stats()
	if s.CrashLostProcs != 2 {
		t.Fatalf("CrashLostProcs = %d, want 2 (both were wiped; one came back)", s.CrashLostProcs)
	}
	if s.Revived != 1 {
		t.Fatalf("Revived = %d, want 1", s.Revived)
	}

	// The revived process still works end to end.
	if err := c.k(1).GiveMessage(saved, addr.KernelAddr(2), []byte("die")); err != nil {
		t.Fatal(err)
	}
	c.run()
	if _, m := c.exitOf(saved); m != 1 {
		t.Fatalf("revived process exited on m%d, want m1", m)
	}
}

// migrateAway spawns a counter on m1 and completes a migration to m2,
// leaving a forwarding address on m1.
func migrateAway(c *tc) addr.ProcessID {
	c.t.Helper()
	pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
	if err != nil {
		c.t.Fatal(err)
	}
	c.runFor(2_000)
	c.migrate(3, pid, 1, 2)
	c.run()
	if info, ok := c.k(2).Process(pid); !ok || info.State == kernel.StateForwarder {
		c.t.Fatal("setup migration 1->2 did not complete")
	}
	return pid
}

// TestSearchRerouteForeignPID: a message lands on a restarted machine that
// never knew the pid. The one fact no crash can erase is the creator
// encoded in the pid itself, so the message is rerouted there once and
// follows the creator's forwarding address to the live copy.
func TestSearchRerouteForeignPID(t *testing.T) {
	c := newTC(t, 3, nil)
	pid := migrateAway(c) // born m1, lives on m2, forwarder on m1

	c.k(3).Crash()
	if err := c.k(3).Restart(); err != nil {
		t.Fatal(err)
	}
	// A stale address pointing at m3: no record, but the pid says "born
	// on m1".
	c.k(3).GiveMessageTo(addr.At(pid, 3), addr.KernelAddr(3), []byte("hit"))
	c.run()

	if s := c.k(3).Stats(); s.SearchForwards != 1 {
		t.Fatalf("SearchForwards = %d, want 1", s.SearchForwards)
	}
	b, ok := c.k(2).BodyOf(pid)
	if !ok {
		t.Fatal("live copy missing on m2")
	}
	if got := b.(*counterBody).Count; got != 1 {
		t.Fatalf("counted %d, want 1 (reroute must deliver exactly once)", got)
	}
}

// TestSearchBroadcastFindsLiveCopy: the creator machine itself crashed and
// lost the forwarding address. A message for the home-born pid is held
// while a broadcast search asks every machine; the holder of the live copy
// answers and the held message is resent.
func TestSearchBroadcastFindsLiveCopy(t *testing.T) {
	c := newTC(t, 3, nil)
	pid := migrateAway(c)

	c.k(1).Crash() // the forwarder for pid dies with m1
	if err := c.k(1).Restart(); err != nil {
		t.Fatal(err)
	}
	c.k(1).GiveMessageTo(addr.At(pid, 1), addr.KernelAddr(1), []byte("hit"))
	c.run()

	s := c.k(1).Stats()
	if s.SearchesSent != 1 {
		t.Fatalf("SearchesSent = %d, want 1", s.SearchesSent)
	}
	if s.DeadLetters != 0 {
		t.Fatalf("DeadLetters = %d, want 0 (the search should have found m2)", s.DeadLetters)
	}
	b, ok := c.k(2).BodyOf(pid)
	if !ok {
		t.Fatal("live copy missing on m2")
	}
	if got := b.(*counterBody).Count; got != 1 {
		t.Fatalf("counted %d, want 1 (search must deliver exactly once)", got)
	}
}

// TestSearchTimeoutDeadLetters: every machine that could answer the search
// is dead, so the timeout fires and the held messages become accounted
// dead letters instead of pinned envelopes.
func TestSearchTimeoutDeadLetters(t *testing.T) {
	c := newTC(t, 3, func(cfg *kernel.Config) { cfg.MigrateTimeout = 100_000 })
	pid := migrateAway(c)

	c.k(1).Crash()
	if err := c.k(1).Restart(); err != nil {
		t.Fatal(err)
	}
	c.k(2).Crash() // the live copy is gone too; m3 knows nothing
	c.k(1).GiveMessageTo(addr.At(pid, 1), addr.KernelAddr(1), []byte("hit"))
	c.run()

	s := c.k(1).Stats()
	if s.SearchesSent != 1 {
		t.Fatalf("SearchesSent = %d, want 1", s.SearchesSent)
	}
	if s.DeadLetters != 1 {
		t.Fatalf("DeadLetters = %d, want 1 (search timeout must account the held message)", s.DeadLetters)
	}
}

// TestKillPointInventory pins the kill-point surface: all eight protocol
// stages of §3.1, in protocol order, each with a stable trace name. The
// inventory lint rule requires every kill-point to be test-referenced;
// this inventory is that reference for the full set, and it fails loudly
// if a stage is added, removed, or reordered without updating the chaos
// drivers that cycle through KillPoints().
func TestKillPointInventory(t *testing.T) {
	want := []kernel.KillPoint{
		kernel.KPSourceFrozen,
		kernel.KPSourceAsked,
		kernel.KPDestAllocated,
		kernel.KPDestMidTransfer,
		kernel.KPDestTransferred,
		kernel.KPSourceEstablished,
		kernel.KPSourceCommitted,
		kernel.KPDestCleanup,
	}
	names := []string{
		"src-frozen", "src-asked", "dst-allocated", "dst-mid-transfer",
		"dst-transferred", "src-established", "src-committed", "dst-cleanup",
	}
	if kernel.KillPointCount != len(want) {
		t.Fatalf("KillPointCount = %d, want %d", kernel.KillPointCount, len(want))
	}
	got := kernel.KillPoints()
	if len(got) != len(want) {
		t.Fatalf("KillPoints() returned %d points, want %d", len(got), len(want))
	}
	for i, kp := range got {
		if kp != want[i] {
			t.Errorf("KillPoints()[%d] = %v, want %v", i, kp, want[i])
		}
		if kp.String() != names[i] {
			t.Errorf("%v.String() = %q, want %q", kp, kp.String(), names[i])
		}
	}
}

// TestSourceCrashAfterTransferLeavesOneCopy is the fork window: the source
// crashes the instant its destination has every region (m2's
// dst-transferred hook), so message 7 finds it down. Only the source decides
// whether m2's established copy is the process, so m2 keeps it incoming and
// asks again every MigrateTimeout. A source back with a checkpoint revived
// holds a live copy and answers Abort: the one copy is on m1. A source back
// without one holds no record of the pid and answers Cleanup: the one copy
// is on m2; if its checkpoint failed to revive, the Cleanup drops it too, so
// a later restart cannot bring a second copy back. A source that never comes
// back leaves m2 asking.
func TestSourceCrashAfterTransferLeavesOneCopy(t *testing.T) {
	const timeout = 500_000
	for _, tt := range []struct {
		name        string
		checkpoint  bool
		reviveFails bool // m1's registry cannot rebuild the body
		restart     bool
		want        []int // live copies at quiescence; nil: m1 stays down
	}{
		{"checkpoint revived on the source", true, false, true, []int{1}},
		{"no checkpoint", false, false, true, []int{2}},
		{"checkpoint that fails to revive", true, true, true, []int{2}},
		{"source never restarts", true, false, false, nil},
	} {
		t.Run(tt.name, func(t *testing.T) {
			kernels := 0
			c := newTC(t, 3, func(cfg *kernel.Config) {
				cfg.MigrateTimeout = timeout
				if kernels++; kernels == 1 && tt.reviveFails {
					cfg.Registry = proc.NewRegistry()
				}
			})
			pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
			if err != nil {
				t.Fatal(err)
			}
			c.runFor(2_000)
			if tt.checkpoint {
				if err := c.k(1).SaveCheckpoint(pid); err != nil {
					t.Fatal(err)
				}
			}
			crashed := false
			c.k(2).SetFaultHook(func(kp kernel.KillPoint, _ addr.ProcessID) {
				if kp != kernel.KPDestTransferred || crashed {
					return
				}
				crashed = true
				c.k(1).Crash()
				if tt.restart {
					c.eng.After(100_000, "test:restart", func() {
						if err := c.k(1).Restart(); err != nil {
							t.Error(err)
						}
					})
				}
			})
			c.migrate(3, pid, 1, 2)

			if !tt.restart {
				// m2 asks forever, so the run never quiesces: step it.
				c.runFor(timeout)
				if !crashed {
					t.Fatal("the migration never reached dst-transferred")
				}
				asked := c.k(2).Stats().AdminSent[msg.OpMigrateEstablished]
				c.runFor(3 * timeout)
				if n := c.k(2).Stats().AdminSent[msg.OpMigrateEstablished] - asked; n != 3 {
					t.Errorf("m2 sent Established %d times in three MigrateTimeouts, want 3", n)
				}
				if info, ok := c.k(2).Process(pid); !ok || info.State != kernel.StateIncoming {
					t.Fatalf("m2's copy is %+v, want it incoming", info)
				}
				if s := c.k(2).Stats(); s.MigrationsFailed != 0 || c.k(2).PendingMigrations() != 1 {
					t.Errorf("m2 MigrationsFailed = %d, pending %d; want 0 and its one half",
						s.MigrationsFailed, c.k(2).PendingMigrations())
				}
				return
			}
			c.run()
			if !crashed {
				t.Fatal("the migration never reached dst-transferred")
			}
			if at := c.liveCopies(pid); fmt.Sprint(at) != fmt.Sprint(tt.want) {
				t.Fatalf("live copies on %v, want %v", at, tt.want)
			}
			if ck := c.k(1).StableCheckpoints(); tt.reviveFails && len(ck) != 0 {
				t.Errorf("m1 keeps the checkpoint it failed to revive, %v, after answering Cleanup", ck)
			}
			for m := 1; m <= 3; m++ {
				if n := c.k(m).PendingMigrations(); n != 0 {
					t.Errorf("m%d: %d migration halves pending", m, n)
				}
			}
		})
	}
}

// TestKillPointMatrix crashes the party that reaches each kill point of one
// migration m1 → m2 (m3 requests it) and restarts it 100 ms later, once with
// the process checkpointed on m1 first and once without. Stable storage
// follows the process with no setting: a checkpointed process ends with
// exactly one live copy and a checkpoint on that machine only, whichever
// point struck. An uncheckpointed process gets no checkpoint anywhere, and
// is lost only where its one copy sat on the crashed machine: the source's
// before the destination could hold it (src-frozen, src-asked), and the
// destination's at message 8 (dst-cleanup), after the source dropped its own.
func TestKillPointMatrix(t *testing.T) {
	lost := map[kernel.KillPoint]bool{kernel.KPSourceFrozen: true, kernel.KPSourceAsked: true, kernel.KPDestCleanup: true}
	for _, kp := range append([]kernel.KillPoint{0}, kernel.KillPoints()...) {
		for _, checkpointed := range []bool{true, false} {
			row := "no-crash"
			if kp != 0 {
				row = kp.String()
			}
			t.Run(fmt.Sprintf("%s/checkpointed=%v", row, checkpointed), func(t *testing.T) {
				c := newTC(t, 3, nil)
				pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &counterBody{}})
				if err != nil {
					t.Fatal(err)
				}
				c.runFor(2_000)
				if checkpointed {
					if err := c.k(1).SaveCheckpoint(pid); err != nil {
						t.Fatal(err)
					}
				}
				crashed := false
				for _, k := range c.ks {
					k.SetFaultHook(func(at kernel.KillPoint, _ addr.ProcessID) {
						if at != kp || crashed {
							return
						}
						crashed = true
						k.Crash()
						c.eng.After(100_000, "test:restart", func() {
							if err := k.Restart(); err != nil {
								t.Error(err)
							}
						})
					})
				}
				c.migrate(3, pid, 1, 2)
				c.run()
				if crashed != (kp != 0) {
					t.Fatalf("crashed = %v at kill point %v", crashed, kp)
				}
				live := c.liveCopies(pid)
				var stable []int
				for m := 1; m <= 3; m++ {
					if slices.Contains(c.k(m).StableCheckpoints(), pid) {
						stable = append(stable, m)
					}
				}
				t.Logf("live copies on %v, checkpoints on %v", live, stable)
				switch {
				case checkpointed:
					if len(live) != 1 || !slices.Equal(stable, live) {
						t.Errorf("live copies on %v, checkpoints on %v; want one live copy, checkpointed there only", live, stable)
					}
				case lost[kp]:
					if len(live) != 0 || len(stable) != 0 {
						t.Errorf("live copies on %v, checkpoints on %v; want the process lost with its machine", live, stable)
					}
				default:
					if len(live) != 1 || len(stable) != 0 {
						t.Errorf("live copies on %v, checkpoints on %v; want one live copy and no checkpoint", live, stable)
					}
				}
				for m := 1; m <= 3; m++ {
					if n := c.k(m).PendingMigrations(); n != 0 {
						t.Errorf("m%d: %d migration halves pending", m, n)
					}
				}
			})
		}
	}
}
