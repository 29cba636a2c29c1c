package kernel_test

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/workload"
)

// TestColdRecordMadeAtFirstUse: over a whole run, a kernel that only
// spawns, runs and exits jobs and exchanges user messages makes neither its
// cold record nor a swap store. A spawn with an image makes the store and
// nothing else; a migration makes the cold record on the source and the
// destination, a forward on the stale sender's kernel (through the link
// update it applies), a restart on the restarted kernel, a console line on
// the printer's kernel. Load reports make none: a load-reporting kernel
// keeps its report state in a record of its own, made at boot.
func TestColdRecordMadeAtFirstUse(t *testing.T) {
	c := newTC(t, 5, nil)
	check := func(when string, want ...bool) {
		t.Helper()
		for m, w := range want {
			if got := c.k(m + 1).HasColdRecord(); got != w {
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
	check("after jobs and user messages", false, false, false, false, false)
	for m := 1; m <= 5; m++ {
		if c.k(m).HasSwapStore() {
			t.Fatalf("m%d made a swap store with no image spawned", m)
		}
	}

	if _, err := c.k(5).Spawn(kernel.SpawnSpec{Body: &blackholeBody{}, ImageSize: 4096}); err != nil {
		t.Fatal(err)
	}
	c.run()
	if !c.k(5).HasSwapStore() {
		t.Fatal("m5 spawned an image and made no swap store")
	}
	check("after a spawn with an image on m5", false, false, false, false, false)

	c.migrate(2, server, 2, 4)
	c.run()
	if s := c.k(4).Stats(); s.MigrationsIn != 1 {
		t.Fatalf("m4 completed %d migrations in, want 1", s.MigrationsIn)
	}
	check("after a migration 2->4", false, true, false, true, false)
	if c.k(2).HasSwapStore() || c.k(4).HasSwapStore() {
		t.Fatal("migrating a process without an image made a swap store")
	}

	c.k(3).GiveMessageTo(addr.At(server, 2), addr.At(sink, 3), []byte("stale"))
	c.run()
	if s := c.k(2).Stats(); s.Forwarded != 1 {
		t.Fatalf("m2 forwarded %d messages, want 1", s.Forwarded)
	}
	if s := c.k(3).Stats(); s.LinkUpdatesApplied != 1 {
		t.Fatalf("m3 applied %d link updates, want 1", s.LinkUpdatesApplied)
	}
	check("after a forward through m2", false, true, true, true, false)

	k := c.k(1)
	k.Crash()
	if err := k.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := k.Restarts(); got != 1 {
		t.Fatalf("m1 counted %d restarts, want 1", got)
	}
	check("after a restart of m1", true, true, true, true, false)

	printer, err := c.k(5).Spawn(kernel.SpawnSpec{Body: &chattyBody{Lines: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c.run()
	if got := c.k(5).Console(printer); len(got) != 1 {
		t.Fatalf("m5 kept %d console lines, want 1", len(got))
	}
	check("after a console line on m5", true, true, true, true, true)

	r := newTC(t, 1, func(cfg *kernel.Config) { cfg.LoadReportEvery = 1000 })
	if r.k(1).HasColdRecord() {
		t.Fatal("a kernel with load reports made a cold record at boot")
	}
	pm := &blackholeBody{}
	pmPID, err := r.k(1).Spawn(kernel.SpawnSpec{Body: pm})
	if err != nil {
		t.Fatal(err)
	}
	r.k(1).SetPMLink(link.Link{Addr: addr.At(pmPID, 1)})
	r.runFor(10_500)
	if len(pm.Got) < 9 {
		t.Fatalf("the process manager got %d load reports in 10 periods, want at least 9", len(pm.Got))
	}
	if r.k(1).HasColdRecord() {
		t.Fatal("a kernel that sent load reports made a cold record")
	}
}
