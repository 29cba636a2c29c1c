package kernel_test

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/workload"
)

// TestColdStatsMadeAtFirstColdWrite: a kernel that only spawns, runs and
// exits jobs and exchanges user messages never makes its cold counter
// record; a migration makes it on the source and the destination, a
// forward on the stale sender's kernel (through the link update it
// applies), and a restart on the restarted kernel.
func TestColdStatsMadeAtFirstColdWrite(t *testing.T) {
	c := newTC(t, 4, nil)
	cold := func(when string, want ...bool) {
		t.Helper()
		for m, w := range want {
			if got := c.k(m + 1).HasColdStats(); got != w {
				t.Fatalf("%s: m%d has a cold record: %v, want %v", when, m+1, got, w)
			}
		}
	}
	jobs := make([]workload.Job, 8)
	for i := range jobs {
		jobs[i].Service = 500
		if _, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &jobs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	server := c.spawnCounter(2)
	sink, err := c.k(3).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}})
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		c.k(3).GiveMessageTo(addr.At(server, 2), addr.At(sink, 3), []byte("hit"))
		c.k(2).GiveMessageTo(addr.At(sink, 3), addr.At(server, 2), []byte("back"))
	}
	c.run()
	if s := c.k(1).Stats(); s.Exited != uint64(len(jobs)) {
		t.Fatalf("m1: %d of %d jobs exited", s.Exited, len(jobs))
	}
	if s := c.k(2).Stats(); s.MsgsEnqueued != 3 {
		t.Fatalf("m2 enqueued %d user messages, want 3", s.MsgsEnqueued)
	}
	cold("after jobs and user messages", false, false, false, false)

	c.migrate(2, server, 2, 4)
	c.run()
	if s := c.k(4).Stats(); s.MigrationsIn != 1 {
		t.Fatalf("m4 completed %d migrations in, want 1", s.MigrationsIn)
	}
	cold("after a migration 2->4", false, true, false, true)

	c.k(3).GiveMessageTo(addr.At(server, 2), addr.At(sink, 3), []byte("stale"))
	c.run()
	if s := c.k(2).Stats(); s.Forwarded != 1 {
		t.Fatalf("m2 forwarded %d messages, want 1", s.Forwarded)
	}
	if s := c.k(3).Stats(); s.LinkUpdatesApplied != 1 {
		t.Fatalf("m3 applied %d link updates, want 1", s.LinkUpdatesApplied)
	}
	cold("after a forward through m2", false, true, true, true)

	k := c.k(1)
	k.Crash()
	if err := k.Restart(); err != nil {
		t.Fatal(err)
	}
	if s := k.Stats(); s.Restarts != 1 {
		t.Fatalf("m1 counted %d restarts, want 1", s.Restarts)
	}
	cold("after a restart of m1", true, true, true, true)
}
